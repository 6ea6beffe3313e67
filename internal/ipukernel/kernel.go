// Package ipukernel is the X-Drop codelet: it executes seed extensions on
// the simulated IPU's tiles exactly as §4.1 describes — six data-parallel
// threads per tile over the detached sequence-set/seed-list data structure
// of Fig. 4, with left/right extension splitting (§4.1.2), eventual work
// stealing (§4.1.3) and VLIW dual issue (§4.1.4) as switchable
// optimisations.
//
// The alignments themselves are computed for real (internal/core); the
// kernel charges each one a deterministic instruction cost derived from
// its execution trace, which the device (internal/ipu) converts to time.
package ipukernel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// SeedJob is one comparison placed on a tile. Sequence references are
// local to the tile's detached sequence set, so a sequence shared by many
// comparisons is stored (and transferred) once — the optimisation that
// saves O(#seeds) host traffic (§4.1.1).
type SeedJob struct {
	// HLocal and VLocal index the tile's Seqs.
	HLocal, VLocal int
	// SeedH, SeedV, SeedLen locate the seed match.
	SeedH, SeedV, SeedLen int
	// GlobalID identifies the comparison in the submitting dataset: a
	// plan row, int32 like the plan's columns.
	GlobalID int32
	// Fanout is the number of planned comparisons this job represents
	// after duplicate-extension elimination (0 or 1 = itself only), as the
	// dedup map counts it. It is host bookkeeping for skipped-work
	// accounting — the device tuple (JobTupleBytes) does not ship it,
	// because fan-out happens on the host when results are assembled.
	Fanout int32
}

// TileWork is the per-tile input of Fig. 4: the sequence set ω_i plus the
// seed-extension list. The set is held as spans into the shared arena
// spine — the dataset's packed Ω — so batches from any number of
// concurrent jobs reference one copy of the pool, and transfer sizes fall
// out of the spans instead of summed slice headers.
type TileWork struct {
	// Slabs is the spine slab table the tile's spans address, indexed by
	// SeqRef.Slab (shared, immutable). The partitioner leaves it nil and
	// the driver binds it per execution attempt (Batch.Bound) from the
	// arena's pinned slab set, so slabs a batch does not touch can stay
	// spilled; a tile built by hand carries its own slabs here directly.
	Slabs [][]byte
	// Seqs is the detached sequence set ω_i as spans into Slabs.
	Seqs []workload.SeqRef
	// Jobs is the seed-extension list over Seqs.
	Jobs []SeedJob
}

// Seq returns local sequence i as a zero-copy view into its slab.
func (t *TileWork) Seq(i int) []byte {
	r := t.Seqs[i]
	s := t.Slabs[r.Slab]
	return s[r.Off:r.End():r.End()]
}

// SeqBytes returns the tile's sequence payload size: the sum of span
// lengths, charging one transfer per descriptor (a sequence placed twice —
// the Copies mode — is transferred twice, as on the real device).
func (t *TileWork) SeqBytes() int {
	n := 0
	for _, r := range t.Seqs {
		n += int(r.Len)
	}
	return n
}

// uniqueSeqBytes returns the distinct slab bytes the tile's spans cover —
// the exact §4.1 payload an arena-aware exchange would ship, with spans
// deduplicated and overlaps merged — and the sort scratch it used, which
// Run keeps in a pooled executor so the per-batch accounting loop stays
// allocation-free once warm. SeqBytes ≥ uniqueSeqBytes; the gap is what
// descriptor-level duplication still costs.
// Spans merge only within their own slab — offsets in different slabs
// are unrelated addresses — so the sort is (slab, offset)-ordered and a
// slab change closes the current merge run. The total is therefore
// identical however the same logical pool is cut into slabs.
func (t *TileWork) uniqueSeqBytes(scratch []workload.SeqRef) (int, []workload.SeqRef) {
	if len(t.Seqs) == 0 {
		return 0, scratch
	}
	scratch = append(scratch[:0], t.Seqs...)
	slices.SortFunc(scratch, func(a, b workload.SeqRef) int {
		if a.Slab != b.Slab {
			return int(a.Slab) - int(b.Slab)
		}
		return int(a.Off) - int(b.Off)
	})
	n := 0
	cur := scratch[0]
	for _, s := range scratch[1:] {
		if s.Slab == cur.Slab && s.Off <= cur.End() {
			if s.End() > cur.End() {
				cur.Len = s.End() - cur.Off
			}
			continue
		}
		n += int(cur.Len)
		cur = s
	}
	return n + int(cur.Len), scratch
}

// Batch is one BSP superstep's worth of work across tiles.
type Batch struct {
	// Tiles holds at most device.Tiles() entries.
	Tiles []TileWork
}

// Bound returns a shallow copy of the batch with every tile's slab table
// set to slabs (tiles share Seqs and Jobs with the original). This is
// the driver's per-attempt binding step: the partitioner emits tiles
// with nil Slabs, the driver pins the batch's slab set in the arena and
// binds here, so hedged attempts racing on the same BatchPlan each get a
// private tile header array and never mutate shared state.
func (b *Batch) Bound(slabs [][]byte) *Batch {
	nb := &Batch{Tiles: make([]TileWork, len(b.Tiles))}
	for i, t := range b.Tiles {
		t.Slabs = slabs
		nb.Tiles[i] = t
	}
	return nb
}

// Wire-format sizes for SRAM and transfer accounting: a job tuple is two
// sequence references plus two 32-bit seed offsets and a length
// (Fig. 4's (seqH*, seqV*, seedBegH, seedBegV) plus k); a result slot is
// the L/R scores and end offsets.
const (
	JobTupleBytes = 20
	ResultBytes   = 32
	seqDescrBytes = 8 // per-sequence descriptor (pointer+length)
	batchHdrBytes = 64
)

// Config selects the kernel variant and optimisation set.
type Config struct {
	// Params configures the X-Drop extension (algorithm, X, δb, scoring).
	Params core.Params
	// Threads is the hardware thread count to use (0 → the model's six).
	Threads int
	// LRSplit schedules left and right extensions as separate work units
	// (§4.1.2); otherwise one unit computes both.
	LRSplit bool
	// WorkStealing enables the lock-free shared work list (§4.1.3);
	// otherwise units are statically assigned round-robin.
	WorkStealing bool
	// BusyWaitVariance enables the thread-unique busy-wait that turns
	// racy stealing into "eventual" work stealing (§4.1.3). Ignored
	// unless WorkStealing is set.
	BusyWaitVariance bool
	// DualIssue co-issues the integer and float pipelines (§4.1.4).
	DualIssue bool
	// Traceback enables traceback: AlignOut carries the alignment's CIGAR
	// plus exact trace-memory accounting. Off, results are bit-identical
	// to the score-only kernel. Every trace comes from core's one
	// recording sweep, 2 bits per banded cell, so trace memory stays
	// bounded by the live window band, never by the full matrix; the peak
	// single-extension footprint surfaces as
	// Counters.PeakTracebackBytes. One rule places each extension's
	// recording on the modeled device. An ungated, fused-eligible
	// extension whose ExtensionTraceBytes bound fits fusedTraceBudget
	// records inside its scoring pass (one sweep); the arena lives on its
	// thread for the whole pass, so TileMemoryBytes charges it once per
	// thread. Every other extension is scored first and then swept again
	// as a second pass (charged like another DP sweep); second passes are
	// serialized through one per-tile arena, so TileMemoryBytes charges the
	// tile's worst such extension once. Either way the tile stays
	// SRAM-certified. The rule is the device's: on the host every traced
	// extension is swept once, whatever it is charged.
	// Every recording's walked path is re-priced against its score, and a
	// mismatch fails the batch. Traceback requires a linear-gap
	// Params.Algo: Run rejects core.AlgoAffine, which is score-only.
	Traceback bool
	// TraceMinScore gates the traceback pass on the comparison's total
	// score (left + seed + right): with a positive cutoff only
	// comparisons that reach it are traced — the rest return score-only
	// results (no CIGAR, no trace bytes), exactly as a score-only run
	// would report them. The host records every side once either way and
	// the gate filters the recorded results. The modeled device scores
	// first and runs the passing comparisons' second passes once both
	// extension scores are known, each charged to the thread that scored
	// the side, so a gated run never fuses (a fused recording cannot be
	// deferred — its buffers are clobbered by the thread's next
	// extension). Zero or negative traces every comparison. Ignored unless
	// Traceback is set; part of the kernel fingerprint (when tracing, and
	// clamped at zero), so gated and ungated runs never share cache
	// entries.
	TraceMinScore int
	// Parallelism caps the host-side tile worker pool (0 → GOMAXPROCS).
	// Callers that already run Run concurrently (driver.NewPlan) divide
	// their budget here so nested pools do not multiply.
	Parallelism int
}

// withDefaults resolves the thread count against the model.
func (c Config) withDefaults(m platform.IPUModel) Config {
	c.Threads = c.threads(m)
	return c
}

// threads is the thread count a tile runs on the model: Threads, or the
// model's hardware threads when Threads is zero or out of range.
func (c *Config) threads(m platform.IPUModel) int {
	if c.Threads <= 0 || c.Threads > m.ThreadsPerTile {
		return m.ThreadsPerTile
	}
	return c.Threads
}

// fusedTraceBudget is the modeled device's per-thread direction-arena
// allowance of a fused recording: an extension fuses only when its
// ExtensionTraceBytes bound fits, so the concurrent recordings of a
// six-thread tile cost at most 6×16 KiB — under a sixth of the 624 KiB
// tile — while small-band extensions (the common X-Drop case) still skip
// the replay. The host has no such limit and does not apply it.
const fusedTraceBudget = 16 << 10

// traceGated reports whether the score-threshold gate is active.
func (c *Config) traceGated() bool { return c.Traceback && c.TraceMinScore > 0 }

// fusedExtension decides whether the modeled device records an extension
// with side lengths lh×lv during its scoring pass (fused single-pass)
// rather than scoring it and replaying: the run traces ungated and the
// extension's arena bound fits fusedTraceBudget. The decision belongs to
// the model alone — the instruction charge (one sweep or two) and the
// SRAM charge, which partition folds through ExtensionCharge. The host
// sweeps every traced extension once either way (runSide).
func (c *Config) fusedExtension(lh, lv int) bool {
	return c.Traceback && !c.traceGated() && c.ExtensionTraceBytes(lh, lv) <= fusedTraceBudget
}

// WorkBufBytesPerThread returns the per-thread DP buffer footprint for
// the configured algorithm given the largest min(m,n) among a tile's
// extensions: Standard3 needs 3δ scores, Restricted2 2δb (§3), each 4
// bytes — core's int32 sweeps, as the paper's kernel holds them. This is
// the quantity the 55× claim compares.
func (c *Config) WorkBufBytesPerThread(maxMinLen int) int {
	const scoreBytes = 4
	delta := maxMinLen + 1
	switch c.Params.Algo {
	case core.AlgoStandard3:
		return 3 * delta * scoreBytes
	case core.AlgoAffine:
		return 7 * delta * scoreBytes
	default:
		db := c.Params.DeltaB
		if db <= 0 || db > delta {
			db = delta
		}
		return 2 * db * scoreBytes
	}
}

// ExtensionTraceBytes bounds the direction-trace footprint of one
// recording over an extension with side lengths lh×lv: packed per-cell
// codes (2 bits per banded cell) over at most
// lh+lv+1 antidiagonal windows, each at most the band wide (δb-capped
// for Restricted2) and collectively at most the full matrix, plus the
// 8-byte-per-antidiagonal window index. The bound dominates the exact
// tracer footprint (core.Trace.TraceBytes) for every input; zero with
// Config.Traceback off.
func (c *Config) ExtensionTraceBytes(lh, lv int) int {
	if !c.Traceback || lh < 0 || lv < 0 {
		return 0
	}
	antid := lh + lv + 1
	bandw := min(lh, lv) + 1
	switch c.Params.Algo {
	case core.AlgoStandard3, core.AlgoAffine:
	default:
		if db := c.Params.DeltaB; db > 0 && db < bandw {
			bandw = db
		}
	}
	cells := int64(antid) * int64(bandw)
	if full := int64(lh+1) * int64(lv+1); full < cells {
		cells = full
	}
	return int((cells+3)/4) + 8*(antid+1)
}

// TileMemoryBytes returns the SRAM footprint of a tile's work under the
// kernel configuration: the TileFootprint of its sequences and jobs under
// the fold of its comparisons' Charges.
func (c *Config) TileMemoryBytes(t *TileWork, model platform.IPUModel) int {
	var ch Charge
	for _, j := range t.Jobs {
		hn, vn := int(t.Seqs[j.HLocal].Len), int(t.Seqs[j.VLocal].Len)
		ch = ch.With(c.ExtensionCharge(j.SeedH, j.SeedV, hn-j.SeedH-j.SeedLen, vn-j.SeedV-j.SeedLen))
	}
	return c.TileFootprint(t.SeqBytes(), len(t.Seqs), len(t.Jobs), ch, model)
}

// TileFootprint is the tile SRAM formula itself, over the quantities a
// tile's work reduces to: sequence bytes, sequence and job counts, and
// the Charge of its comparisons. TileMemoryBytes evaluates it on finished
// work, partition's batcher on work it is still assembling.
func (c *Config) TileFootprint(seqBytes, nSeqs, nJobs int, ch Charge, model platform.IPUModel) int {
	return seqBytes +
		nSeqs*seqDescrBytes +
		nJobs*(JobTupleBytes+ResultBytes) +
		c.BufferBytes(ch, model) +
		batchHdrBytes
}

// Charge is the part of a tile's SRAM need that its comparisons' extension
// geometry decides: the largest min-side extension (it sizes the
// per-thread DP buffers) and the worst fused (per-thread) and replay (one
// shared arena) trace charges. The zero Charge claims nothing; With folds
// Charges, so a tile's Charge is the fold of its comparisons'.
type Charge struct {
	maxMin, fused, replay int
}

// With folds two Charges: a tile holding both needs the larger of each.
func (a Charge) With(b Charge) Charge {
	return Charge{max(a.maxMin, b.maxMin), max(a.fused, b.fused), max(a.replay, b.replay)}
}

// ExtensionCharge is the Charge of one comparison whose left extension
// spans lh×lv and right extension rh×rv. Without traceback only the DP
// buffers depend on the geometry, and that case inlines into the
// partitioner's per-comparison folds.
func (c *Config) ExtensionCharge(lh, lv, rh, rv int) Charge {
	if !c.Traceback {
		return Charge{maxMin: max(min(lh, lv), min(rh, rv))}
	}
	return c.tracedCharge(lh, lv, rh, rv)
}

// tracedCharge is ExtensionCharge with traceback on: the DP buffers plus
// both extensions' direction-arena bounds.
func (c *Config) tracedCharge(lh, lv, rh, rv int) Charge {
	lf, lr := c.TraceCharges(lh, lv)
	rf, rr := c.TraceCharges(rh, rv)
	return Charge{max(min(lh, lv), min(rh, rv)), max(lf, rf), max(lr, rr)}
}

// BufferBytes is the tile SRAM a Charge claims on the model: every
// thread's DP buffers and fused trace arena, plus the one
// shared replay arena.
func (c *Config) BufferBytes(ch Charge, model platform.IPUModel) int {
	return c.threads(model)*(c.WorkBufBytesPerThread(ch.maxMin)+ch.fused) + ch.replay
}

// TraceCharges reports one extension's direction-arena bound in the pool
// the kernel records it in: fused (per-thread) or replay (the shared
// serialized arena); at most one of the two is nonzero. ExtensionCharge
// applies this split, so every tile partition admits keeps its SRAM
// certification.
func (c *Config) TraceCharges(lh, lv int) (fused, replay int) {
	b := c.ExtensionTraceBytes(lh, lv)
	if b == 0 {
		return 0, 0
	}
	if c.fusedExtension(lh, lv) {
		return b, 0
	}
	return 0, b
}

// AlignOut is one comparison's result.
type AlignOut struct {
	// GlobalID echoes the job's comparison identity.
	GlobalID int
	// Score = LeftScore + seed score + RightScore.
	Score int
	// LeftScore and RightScore are the two extension scores.
	LeftScore, RightScore int
	// BegH/BegV/EndH/EndV delimit the aligned region.
	BegH, BegV, EndH, EndV int
	// Cells and Antidiagonals aggregate both extensions' traces, one
	// execution each whatever the modeled schedule.
	Cells         int64
	Antidiagonals int
	// MaxLiveBand is the larger δw of the two extensions.
	MaxLiveBand int
	// Clamped reports a δb clamp in either extension.
	Clamped bool
	// Failed marks a comparison whose batch exhausted the engine's fault
	// tolerance and completed as a degraded placeholder instead of an
	// alignment: GlobalID is valid, every score, coordinate and trace
	// field is zero. The kernel never sets it — it exists so degraded
	// per-comparison status can ride the same result plumbing (fan-out,
	// streaming, reports) as real alignments. Counted in
	// driver.Report.PartialFailures; never stored in a result cache.
	Failed bool
	// Cigar is the comparison's full edit script (left extension + seed
	// columns + right extension) over [BegH,EndH)×[BegV,EndV). Empty
	// unless Config.Traceback is set. Being a validated string it is
	// immutable and comparable, so results stay ==-testable and safely
	// shared through dedup fan-out and the cross-job result cache.
	Cigar alignment.Cigar
	// TraceBytes is the exact direction-trace storage both extensions'
	// recordings held (0 with traceback off).
	TraceBytes int
}

// Counters is the one set of execution counters a run reports. Each is
// declared here, once, with its name on the wire; every layer above —
// tile, batch, plan, report, stream — embeds this struct and merges with
// Add instead of re-declaring fields.
type Counters struct {
	// HostBytesIn is the host→device payload (sequences, descriptors,
	// job tuples, header) — what the driver pushes over the shared link.
	HostBytesIn int64 `json:"hostBytesIn"`
	// HostBytesOut is the device→host result payload.
	HostBytesOut int64 `json:"hostBytesOut"`
	// UniqueSeqBytesIn is the exact arena payload per §4.1: the distinct
	// slab bytes the tiles' spans cover. HostBytesIn − this gap is the
	// duplication an offset-addressed exchange would eliminate.
	UniqueSeqBytesIn int64 `json:"uniqueSeqBytesIn"`
	// TheoreticalCells is the |H|·|V| volume of the executed comparisons
	// (the GCUPS numerator, §5.1), counted once per comparison. Cells is
	// what the X-Drop band computed on the device: it counts device work,
	// so a race's duplicate execution is counted once per tied thread
	// (the per-result AlignOut.Cells counts one execution).
	TheoreticalCells int64 `json:"theoreticalCells"`
	Cells            int64 `json:"cells"`
	// SumBand and Antidiags support mean-live-band reporting; like Cells
	// they count device work, a race's duplicate included.
	SumBand   int64 `json:"sumBand"`
	Antidiags int64 `json:"antidiags"`
	// Races counts duplicated steals (two threads grabbing one unit);
	// StealOps counts work-steal attempts (§4.1.3).
	Races    int `json:"races"`
	StealOps int `json:"stealOps"`
	// MaxSRAM is the largest per-tile SRAM footprint seen.
	MaxSRAM int `json:"maxSRAM"`
	// SkippedTheoreticalCells is the |H|·|V| volume kept off the device:
	// the duplicate comparisons the executed jobs stand for
	// (SeedJob.Fanout), plus — in a driver.Summary — what result-cache
	// hits served. TheoreticalCells covers executed work only, so the two
	// add up to the total a dedup-off run would model. DedupSkippedJobs
	// counts those duplicate comparisons; it stays off the wire. Both are
	// zero unless the driver planned with duplicate-extension elimination.
	SkippedTheoreticalCells int64 `json:"skippedTheoreticalCells"`
	DedupSkippedJobs        int   `json:"-"`
	// PeakTracebackBytes is the largest single-extension direction-trace
	// footprint any tile thread held — the extra SRAM a traceback-enabled
	// tile needs at once, bounded by the live-window band (2 bits per
	// banded cell), never by the O(m·n) matrix. Zero with
	// Config.Traceback off. TracebackBytes sums the recorded trace storage
	// over every executed extension.
	PeakTracebackBytes int   `json:"peakTracebackBytes"`
	TracebackBytes     int64 `json:"tracebackBytes"`
	// Traceback-gate accounting, one count per executed extension (an
	// extension is either traced or skipped, never both; both are zero
	// with Config.Traceback off). TracedExtensions recorded and delivered
	// a direction trace (fused or replayed); TraceSkippedExtensions were
	// score-gated below Config.TraceMinScore and returned score-only
	// results. Extensions of comparisons degraded by a trace-overflow
	// failure count in neither.
	TracedExtensions       int `json:"tracedExtensions"`
	TraceSkippedExtensions int `json:"traceSkippedExtensions"`
}

// Add merges o into c. This is the merge rule of every layer: counters
// sum, except the two high-water marks (MaxSRAM, PeakTracebackBytes),
// which take the maximum.
func (c *Counters) Add(o Counters) {
	c.HostBytesIn += o.HostBytesIn
	c.HostBytesOut += o.HostBytesOut
	c.UniqueSeqBytesIn += o.UniqueSeqBytesIn
	c.TheoreticalCells += o.TheoreticalCells
	c.Cells += o.Cells
	c.SumBand += o.SumBand
	c.Antidiags += o.Antidiags
	c.Races += o.Races
	c.StealOps += o.StealOps
	c.MaxSRAM = max(c.MaxSRAM, o.MaxSRAM)
	c.SkippedTheoreticalCells += o.SkippedTheoreticalCells
	c.DedupSkippedJobs += o.DedupSkippedJobs
	c.PeakTracebackBytes = max(c.PeakTracebackBytes, o.PeakTracebackBytes)
	c.TracebackBytes += o.TracebackBytes
	c.TracedExtensions += o.TracedExtensions
	c.TraceSkippedExtensions += o.TraceSkippedExtensions
}

// BatchResult aggregates one superstep.
type BatchResult struct {
	// Out holds one entry per job, in batch tile/job order.
	Out []AlignOut
	// Seconds is the modeled superstep duration (compute+exchange+sync) —
	// on-device seconds, the time base the paper uses for IPU GCUPS (§5.1).
	Seconds float64
	// TileInstr is the per-tile max thread instruction count.
	TileInstr []int64
	// Counters is the batch's fold of its tiles' counters.
	Counters
}

// Run executes a batch on the device at the turn's gate and accounts one
// BSP superstep: the results are Run's whatever the turn.
func (t Turn) Run(dev *ipu.Device, b *Batch, cfg Config) (*BatchResult, error) {
	cfg = cfg.withDefaults(dev.Model())
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Traceback && cfg.Params.Algo == core.AlgoAffine {
		return nil, core.ErrAffineTraceback
	}
	if len(b.Tiles) > dev.Tiles() {
		return nil, fmt.Errorf("ipukernel: batch has %d tiles, device has %d", len(b.Tiles), dev.Tiles())
	}
	for ti := range b.Tiles {
		t := &b.Tiles[ti]
		for _, r := range t.Seqs {
			if r.Len == 0 {
				continue
			}
			if r.Slab < 0 || int(r.Slab) >= len(t.Slabs) || t.Slabs[r.Slab] == nil {
				return nil, fmt.Errorf("ipukernel: tile %d references slab %d but the tile's slab table is unbound (partitioned batches must be Bound to a pinned slab set before Run)", ti, r.Slab)
			}
		}
	}

	res := &BatchResult{
		TileInstr: make([]int64, len(b.Tiles)),
	}
	outOff := make([]int, len(b.Tiles))
	total := 0
	for i := range b.Tiles {
		outOff[i] = total
		total += len(b.Tiles[i].Jobs)
	}
	res.Out = make([]AlignOut, total)

	tiles := make([]tileResult, len(b.Tiles))

	// A GOMAXPROCS-sized worker pool pulls tiles from an atomic cursor:
	// per-worker executors carry the DP workspaces and scheduling scratch
	// across tiles (and, via execPool, across Run calls), so steady-state
	// tile execution allocates nothing. Results stay deterministic
	// regardless of worker count: each tile writes a disjoint slice of
	// res.Out and its own result slot, and per-tile execution is itself
	// deterministic.
	//
	// A worker yields the processor between tiles (≈ 0.1–0.5 ms of work
	// each). Workers are the process's CPU-bound goroutines and, under a
	// saturated engine, there is one per processor: whatever a delivered
	// batch woke downstream — the stream's consumer, the service's pump,
	// the HTTP handler's write and flush, the client's reader once netpoll
	// has readied it — otherwise waits out the batch, or Go's 10 ms
	// preemption quantum, at every hop. With nothing else runnable the
	// yield returns at once. Workers claim tiles at the turn's Gate, so
	// between two tiles a worker of a yielding execution also waits for
	// the first executions' tiles to be claimed, or stands aside for a
	// tile when the gate is paused.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.Tiles) {
		workers = len(b.Tiles)
	}
	// One closure, started once per worker, holds c by value: the
	// workers share its cursor alone.
	c := t.claims(len(b.Tiles))
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		ex := execPool.Get().(*executor)
		defer execPool.Put(ex)
		c.enter()
		defer c.leave()
		for {
			ti, ok := c.next()
			if !ok {
				return
			}
			tile := &b.Tiles[ti]
			sram := cfg.TileMemoryBytes(tile, dev.Model())
			if sram > dev.DataSRAM() {
				tiles[ti].err = fmt.Errorf("ipukernel: tile %d needs %d B SRAM, budget %d B (use graph partitioning / smaller δb)",
					ti, sram, dev.DataSRAM())
				continue
			}
			tiles[ti] = runTile(tile, &cfg, ex, res.Out[outOff[ti]:outOff[ti]+len(tile.Jobs)])
			tiles[ti].MaxSRAM = sram
			c.step()
		}
	}
	wg.Add(workers)
	for range workers {
		go work()
	}
	wg.Wait()

	ex := execPool.Get().(*executor)
	defer execPool.Put(ex)
	for ti := range tiles {
		tr := &tiles[ti]
		if tr.err != nil {
			return nil, tr.err
		}
		res.TileInstr[ti] = tr.maxInstr
		res.Add(tr.Counters)
		tile := &b.Tiles[ti]
		res.HostBytesIn += int64(tile.SeqBytes() + len(tile.Seqs)*seqDescrBytes +
			len(tile.Jobs)*JobTupleBytes + batchHdrBytes)
		var unique int
		unique, ex.seqRefs = tile.uniqueSeqBytes(ex.seqRefs)
		res.UniqueSeqBytesIn += int64(unique)
		// CIGARs ride the result return as 4-byte packed runs on top of
		// the fixed result slot.
		res.HostBytesOut += int64(len(tile.Jobs)*ResultBytes) + tr.cigarBytes
	}

	secs, err := dev.RunSuperstep(ipu.Superstep{
		TileInstr:     res.TileInstr,
		ExchangeBytes: res.HostBytesOut,
		SRAMUsed:      res.MaxSRAM,
	})
	if err != nil {
		return nil, err
	}
	res.Seconds = secs
	return res, nil
}
