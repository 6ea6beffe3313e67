package engine

import (
	"context"
	"errors"
	"slices"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Job is one asynchronous submission's handle: wait for the full report,
// or stream results batch by batch as the fleet completes them.
type Job struct {
	eng     *Engine
	ctx     context.Context
	cancel  context.CancelFunc // cancels ctx (a child of the submit context)
	seq     int64
	dataset *workload.Dataset

	built  chan struct{} // closed once the plan is built and the stream exists
	doneCh chan struct{} // closed once the job settles

	// expand maps a batch's raw results into per-comparison space when
	// the plan was built with dedup (nil otherwise); cachedResults holds
	// the per-comparison results the build served from the result cache.
	// Both are set before built closes and immutable afterwards, and
	// outlive bp so late-opened streams replay correctly after the plan
	// is released.
	expand        func([]ipukernel.AlignOut) []ipukernel.AlignOut
	cachedResults []ipukernel.AlignOut

	// deadline is the job's wall-clock completion deadline (zero when the
	// engine runs without WithJobDeadline). Set before the job is
	// registered and immutable afterwards.
	deadline time.Time

	// All fields below are guarded by eng.mu.
	bp        *driver.BatchPlan
	updates   chan Update
	streaming bool // updates is open
	issued    int  // executions issued (first issues + retries + hedges): the fair-share key
	done      int  // batches delivered (first accepted result per batch)
	finished  bool
	report    *driver.Report
	err       error

	// Batch lifecycle, written by step alone (runJob allocates, settlement
	// releases). batches is one record per batch; outs the delivered
	// results driver.AssemblePlan consumes, nil until a batch is delivered.
	// nextIssue is the lowest pending batch — batches leave phasePending in
	// index order — and ready the LIFO of batches waiting for an executor,
	// so retries re-issue before fresh batches. retriesUsed draws down the
	// per-job retry budget; alarms are the hedge-window and expiry timers.
	batches     []batchState
	outs        []*ipukernel.BatchResult
	nextIssue   int
	ready       []int
	retriesUsed int
	alarms      [2]*time.Timer
}

// batchPhase is where a batch stands. Executions in flight are counted
// beside it, not in it: a quarantined batch can sit in phaseReady for the
// host path while a stale fleet copy still runs.
type batchPhase uint8

const (
	phasePending   batchPhase = iota // never issued
	phaseReady                       // on Job.ready, waiting for an executor
	phaseRunning                     // issued; whichever execution returns first decides it
	phaseBackoff                     // failed transiently; its timer makes it ready
	phaseDelivered                   // Job.outs holds its accepted result
)

// batchState is one batch's lifecycle record.
type batchState struct {
	phase    batchPhase
	hedged   bool        // already duplicated near the deadline
	fallback bool        // quarantined: executions issued from now on run the reference host path
	attempts int32       // executions issued, so the next one's attempt number
	inflight int32       // executions running now
	startNS  int64       // when inflight last left zero, for slowest-batch hedging
	timer    *time.Timer // the pending backoff timer (phaseBackoff only)
}

// batchEvent is something that happens to a batch; Job.step is the one
// place that decides what it means.
type batchEvent uint8

const (
	evIssue           batchEvent = iota // an executor takes the job's next batch
	evHedge                             // an idle executor duplicates a running batch
	evReturn                            // a fleet execution returned (out or err)
	evReturnHost                        // a reference-host-path execution returned
	evDeliver                           // the returned result is recorded
	evTimer                             // the backoff timer fired
	evQuarantine                        // DegradeFallback: its fault tolerance, or the deadline, ran out
	evDeadlinePartial                   // the deadline expired under DegradePartial
	evSettle                            // the job is settling
)

// settledLocked reports whether nothing more can happen to batch bi: the
// job settled or the batch is delivered. It is step's first question, so
// a late delivery, the losing copy of a hedged pair and a backoff timer
// firing into a settled job all drop on the same test.
func (j *Job) settledLocked(bi int) bool {
	return j.finished || j.batches[bi].phase == phaseDelivered
}

// step is the batch state machine: every write to a batchState, to the
// ready queue and to the job's issue, delivery and retry counters happens
// here, under eng.mu. ev says what happened to batch bi; out and err carry
// an execution's outcome (return events) or the result to record
// (evDeliver). A return event hands back what the caller must record with
// evDeliver once its stream copy is made — the execution's result, or
// Failed placeholders when degradation completes the batch — and nil when
// a twin will decide the batch or the failure was retried, re-queued or
// failed the job. evDeliver and evDeadlinePartial hand back what they
// recorded. An event with no meaning where the batch stands (anything
// after delivery or settlement, a return with nothing in flight, a timer
// without a backoff) changes nothing and returns nil.
func (j *Job) step(bi int, ev batchEvent, out *ipukernel.BatchResult, err error) (recorded *ipukernel.BatchResult) {
	if j.settledLocked(bi) {
		return nil
	}
	e, b := j.eng, &j.batches[bi]
	next := b.phase
	switch ev {
	case evIssue, evHedge:
		if ev == evHedge {
			// Duplicate a running batch once; first result wins.
			if b.phase != phaseRunning || b.inflight == 0 || b.hedged {
				return nil
			}
			b.hedged = true
			e.stats.Hedges++
		} else if b.phase != phasePending && b.phase != phaseReady {
			return nil
		}
		next = phaseRunning
		if b.inflight == 0 && !j.deadline.IsZero() {
			b.startNS = time.Now().UnixNano()
		}
		j.issued++
		b.attempts++
		b.inflight++
	case evReturn, evReturnHost:
		if b.inflight == 0 {
			return nil
		}
		b.inflight--
		var fe *driver.FaultError
		switch {
		case err == nil:
			return out
		case b.inflight > 0:
			// A twin of this batch is still running (hedge or stale
			// fleet copy behind a quarantine); let it decide the batch.
			return nil
		case ev == evReturnHost:
			// The reference path itself failed — deterministic, so no
			// re-run fixes it. Complete the batch with placeholders.
			return j.bp.FailedBatchResult(bi)
		case b.fallback:
			// A stale fleet copy of a quarantined batch: the host path
			// decides the batch, so no retry is charged, and the batch is
			// queued again only if its host execution already returned
			// (it failed and deferred to this copy).
			next = phaseReady
		case errors.As(err, &fe) && fe.Transient() && e.retryMax > 0 &&
			int(b.attempts)-1 < e.retryMax &&
			(e.retryBudget <= 0 || j.retriesUsed < e.retryBudget):
			j.retriesUsed++
			e.stats.Retries++
			next = phaseBackoff
		// Fault tolerance exhausted: degrade per policy.
		case e.degraded == DegradeFallback:
			return j.step(bi, evQuarantine, nil, nil)
		case e.degraded == DegradePartial:
			e.stats.Quarantined++
			return j.bp.FailedBatchResult(bi)
		default:
			e.finishLocked(j, nil, err)
			return nil
		}
	case evTimer:
		if b.phase == phaseBackoff {
			next = phaseReady
		}
	case evQuarantine:
		// Off the fleet: executions issued from here on run the reference
		// host path, bit-identical by construction. Copies already in
		// flight keep running — whichever execution delivers first wins.
		if !b.fallback {
			b.fallback = true
			e.stats.Quarantined++
			next = phaseReady
		}
	case evDeadlinePartial:
		e.stats.Quarantined++
		return j.step(bi, evDeliver, j.bp.FailedBatchResult(bi), nil)
	case evDeliver:
		next = phaseDelivered
		recorded = out
		j.outs[bi] = out
		j.done++
		e.stats.BatchesDone++
		e.stats.CellsDone += out.Cells
		e.stats.NarrowExtensions += int64(out.NarrowExtensions)
		e.stats.WideExtensions += int64(out.WideExtensions)
		e.stats.PromotedExtensions += int64(out.PromotedExtensions)
		e.stats.TracedExtensions += int64(out.TracedExtensions)
		e.stats.TraceSkippedExtensions += int64(out.TraceSkippedExtensions)
	case evSettle:
		if b.timer != nil {
			b.timer.Stop()
			b.timer = nil
		}
	}
	if next == b.phase {
		return recorded
	}
	switch b.phase { // leave
	case phasePending:
		j.nextIssue++
	case phaseReady:
		// The top of the queue when an executor takes it; anywhere when a
		// stale fleet copy delivers a batch queued for the host path.
		i := len(j.ready) - 1
		for j.ready[i] != bi {
			i--
		}
		j.ready = slices.Delete(j.ready, i, i+1)
	case phaseBackoff:
		b.timer.Stop() // a no-op when this is the timer that fired
		b.timer = nil
	}
	b.phase = next
	switch next { // enter
	case phaseReady:
		j.ready = append(j.ready, bi)
		e.cond.Broadcast()
	case phaseBackoff:
		// Created under the engine lock, so the callback (which takes it)
		// cannot run before the timer is stored.
		b.timer = time.AfterFunc(e.backoffFor(j, bi, int(b.attempts)), func() {
			e.mu.Lock()
			j.step(bi, evTimer, nil, nil)
			e.mu.Unlock()
		})
	}
	return recorded
}

// Update is one executed batch of a job, streamed in completion order.
type Update struct {
	// Batch is the batch's index in the job's schedule; Batches is the
	// schedule's total, so consumers can track progress. Batch is -1 for
	// the leading updates carrying results the engine's result cache
	// served without executing anything (WithResultCache): one update per
	// cachedChunkResults results, so a large cache-served job has several.
	Batch, Batches int
	// Results holds the batch's comparison results; GlobalID indexes the
	// submitted dataset's comparison list. With dedup enabled a batch
	// executes unique extensions only, but the stream still carries one
	// entry per submitted comparison: duplicates arrive alongside their
	// representative, bit-identical except for GlobalID. Under
	// WithDegradedMode(DegradePartial) a quarantined batch streams Failed
	// placeholders instead of alignments (check AlignOut.Failed).
	Results []ipukernel.AlignOut
	// Seconds is the batch's modeled on-device compute time (0 for a
	// cache-served update).
	Seconds float64
}

// Done returns a channel closed when the job settles (report ready,
// failed, or cancelled).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cancel cancels the job: planning stops, not-yet-issued batches are
// dropped, and Wait returns context.Canceled. It is the handle-side
// cancellation hook for callers that do not own the submit context — a
// service front-end tearing a job down when its client disconnects.
// Idempotent; a no-op after the job settles.
func (j *Job) Cancel() { j.cancel() }

// Err returns the job's terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.eng.mu.Lock()
	defer j.eng.mu.Unlock()
	if !j.finished {
		return nil
	}
	return j.err
}

// Wait blocks until the job settles and returns its report — bit-identical
// to driver.Run on the same dataset and engine configuration. The context
// bounds only this wait; cancelling it does not cancel the job (cancel the
// Submit context for that).
func (j *Job) Wait(ctx context.Context) (*driver.Report, error) {
	select {
	case <-j.doneCh:
		return j.report, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Results streams the job's batches as they complete; batches executed
// before the first Results call are replayed into the stream, so it is
// complete whenever it is opened: across all updates every submitted
// comparison appears exactly once (dedup'd duplicates stream alongside
// their representative; cache-served results lead as Batch == -1
// updates of bounded size). The channel is buffered for the whole
// schedule — executors never block on a slow consumer — and is closed
// when the job settles, so ranging over it terminates; check Err
// afterwards to distinguish completion from cancellation. Results blocks
// until planning finishes (it needs the schedule's size); a job that
// settles before then yields a closed, empty stream.
func (j *Job) Results() <-chan Update {
	select {
	case <-j.built:
	case <-j.doneCh:
		select {
		case <-j.built:
		default: // settled before (or without) a plan
			ch := make(chan Update)
			close(ch)
			return ch
		}
	}
	j.eng.mu.Lock()
	defer j.eng.mu.Unlock()
	j.openStreamLocked()
	return j.updates
}
