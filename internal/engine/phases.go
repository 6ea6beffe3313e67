package engine

import "time"

// Phases is where one job's wall time went, stamped on the engine's clock
// at every phase change. Its segments tile the job's wall time, in order:
// AdmitWait, PlanDedup, PlanItems, PlanBatches, Execute, Complete run
// from Submit to settlement, each stamp closing one segment and opening
// the next, so they sum to Wall exactly. A job the service ran also
// carries the service's own segments, Decode before the engine's and
// Stream after them, and its Wall covers them too.
//
// Beside the segments, FirstUpdate is the time from Submit to the job's
// first update, and Pin, Exec, Wait, Merge and Publish are per-batch
// totals: summed over batches and executions, which overlap each other
// and the segments.
//
// A job that settles early (cancelled, failed, or expired at its
// deadline) closes its open segment at settlement and leaves the later
// ones zero. On the wire a zero field is left out. The value never
// enters a driver.Report, so reports stay bit-identical to driver.Run's.
type Phases struct {
	// Decode is the service's: the request from its arrival, through
	// admission and the body's decode, to Submit.
	Decode time.Duration `json:"decodeNs,omitempty"`
	// AdmitWait is Submit waiting for an admission slot (WithQueueDepth).
	AdmitWait time.Duration `json:"admitWaitNs,omitempty"`
	// PlanDedup is validation, duplicate-extension elimination and the
	// result-cache lookup.
	PlanDedup time.Duration `json:"planDedupNs,omitempty"`
	// PlanItems is the sequence budget, the comparisons' pricing pass and
	// the §4.3 walk into items.
	PlanItems time.Duration `json:"planItemsNs,omitempty"`
	// PlanBatches is the §4.2 batcher, the batches' slab sets and the
	// job's registration with the executors.
	PlanBatches time.Duration `json:"planBatchesNs,omitempty"`
	// Execute runs from registration until the last batch has landed
	// (zero when the cache served every result).
	Execute time.Duration `json:"executeNs,omitempty"`
	// Complete is the report's fold — the batch-order accounting, the
	// cache fill and the dedup fan-out — and the job's settlement.
	Complete time.Duration `json:"completeNs,omitempty"`
	// Stream is the service's: from the engine's settlement, through the
	// drain of the updates still buffered then, to the final record.
	Stream time.Duration `json:"streamNs,omitempty"`
	// Wall is the time the segments tile: Submit to settlement, or, from
	// the service, the request's arrival to its final record.
	Wall time.Duration `json:"wallNs,omitempty"`

	// FirstUpdate is Submit to the job's first update: the registration
	// of a plan the cache served results to, otherwise the first batch's
	// landing. Zero when no update was produced.
	FirstUpdate time.Duration `json:"firstUpdateNs,omitempty"`
	// Pin sums the fleet executions' slab pins.
	Pin time.Duration `json:"pinNs,omitempty"`
	// Exec sums the executions' run time after the pin, straggler delays
	// and failed attempts included.
	Exec time.Duration `json:"execNs,omitempty"`
	// Wait sums, over delivered batches, the time from a batch's first
	// issue to the issue of the execution that delivered it: what retries
	// and hedges cost the batch.
	Wait time.Duration `json:"waitNs,omitempty"`
	// Merge sums the landings' copies into the report.
	Merge time.Duration `json:"mergeNs,omitempty"`
	// Publish sums the landings' hand-offs to the stream.
	Publish time.Duration `json:"publishNs,omitempty"`
}

// Add adds o to p, field by field. Every phase change is one Add, and
// so is the service's contribution.
func (p *Phases) Add(o Phases) {
	p.Decode += o.Decode
	p.AdmitWait += o.AdmitWait
	p.PlanDedup += o.PlanDedup
	p.PlanItems += o.PlanItems
	p.PlanBatches += o.PlanBatches
	p.Execute += o.Execute
	p.Complete += o.Complete
	p.Stream += o.Stream
	p.Wall += o.Wall
	p.FirstUpdate += o.FirstUpdate
	p.Pin += o.Pin
	p.Exec += o.Exec
	p.Wait += o.Wait
	p.Merge += o.Merge
	p.Publish += o.Publish
}

// segment names the job's open segment.
type segment uint8

const (
	segAdmit segment = iota
	segDedup
	segItems
	segBatches
	segExecute
	segComplete
	segSettled // none: the job has settled
)

// of is d spent in s.
func (s segment) of(d time.Duration) Phases {
	switch s {
	case segAdmit:
		return Phases{AdmitWait: d}
	case segDedup:
		return Phases{PlanDedup: d}
	case segItems:
		return Phases{PlanItems: d}
	case segBatches:
		return Phases{PlanBatches: d}
	case segExecute:
		return Phases{Execute: d}
	case segComplete:
		return Phases{Complete: d}
	}
	return Phases{}
}

// stamps chains a job's phase changes: each closes the open segment at
// the instant it is stamped and opens the next there, so no time falls
// between two segments or into both.
type stamps struct {
	open segment
	at   time.Time
}

// to closes the open segment at now, adding it to p, and opens next.
func (s *stamps) to(p *Phases, now time.Time, next segment) {
	p.Add(s.open.of(now.Sub(s.at)))
	s.open, s.at = next, now
}
