// Package engine exposes the modeled IPU system as a persistent
// asynchronous service, the way the paper's library does on real
// hardware (create_batches → async_submit → blocking_join): a long-lived
// Engine owns the device fleet, many clients Submit datasets
// concurrently, and each submission streams its results back batch by
// batch while the host keeps producing work.
//
// The engine layers on the driver's staged pipeline: Submit builds a
// BatchPlan asynchronously (cancellable via the submission's context),
// then a fixed pool of device executors interleaves batches from every
// active job onto the shared fleet — earliest-free device, per-job fair
// share — so one huge submission cannot starve small ones. A bounded
// admission queue provides backpressure: Submit blocks once QueueDepth
// jobs are in flight.
//
// Reports are bit-identical to driver.Run for the same dataset and
// configuration regardless of submission order, queue depth or executor
// count: batches are independent, per-batch results deterministic, and
// the final report is assembled in batch order from the job's own plan.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/workload"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// ErrDeadline settles a job whose WithJobDeadline expired in the default
// (fail) degraded mode. It wraps context.DeadlineExceeded, so
// errors.Is(err, context.DeadlineExceeded) holds.
var ErrDeadline = fmt.Errorf("engine: job deadline exceeded: %w", context.DeadlineExceeded)

// DefaultQueueDepth bounds in-flight submissions when WithQueueDepth is
// not given.
const DefaultQueueDepth = 16

// DegradedMode selects what the engine does with a batch that exhausted
// its fault tolerance (permanent fault, retry budget spent, or a job
// deadline expiring with work outstanding).
type DegradedMode uint8

const (
	// DegradeFail fails the whole job with the batch's error — the
	// pre-fault-tolerance behaviour, and the default.
	DegradeFail DegradedMode = iota
	// DegradeFallback quarantines the batch off the (faulty) fleet and
	// re-runs it through the reference host path
	// (driver.BatchPlan.ExecBatchHost). Results are bit-identical to
	// fault-free fleet execution, so the job's report is unchanged; only
	// Stats.Quarantined records the detour. Should the host path itself
	// fail (a deterministic execution error no re-run fixes), the batch
	// completes with Failed placeholders as in DegradePartial.
	DegradeFallback
	// DegradePartial completes the batch with one Failed placeholder per
	// comparison: the job finishes, Report.PartialFailures counts the
	// casualties, and each affected Results entry has Failed set.
	DegradePartial
)

// String names the mode.
func (m DegradedMode) String() string {
	switch m {
	case DegradeFail:
		return "fail"
	case DegradeFallback:
		return "fallback"
	case DegradePartial:
		return "partial"
	}
	return fmt.Sprintf("DegradedMode(%d)", uint8(m))
}

// Engine is a persistent asynchronous alignment service over the modeled
// device fleet.
type Engine struct {
	cfg          driver.Config
	queueDepth   int
	executors    int
	cacheEntries int
	cache        *resultCache

	// Fault-tolerance policy, fixed at construction.
	retryMax    int           // max retries per batch (0 = retries off)
	retryBudget int           // per-job retry cap (0 = uncapped)
	backoffBase time.Duration // first retry delay
	backoffCap  time.Duration // backoff ceiling
	deadline    time.Duration // per-job wall-clock deadline (0 = none)
	hedgeWindow time.Duration // hedging opens this long before the deadline
	degraded    DegradedMode
	clk         clock.Clock // deadlines, hedging, backoff and the fault plan's straggler waits

	// gate orders this engine's executions at tile granularity: a job's
	// first execution goes first (ipukernel.Gate). One per engine, so two
	// engines in one process never gate each other.
	gate *ipukernel.Gate

	mu     sync.Mutex
	cond   *sync.Cond // work to issue, or the engine closing
	landed sync.Cond  // some job's report exists, its landings drained (Job.landing reached 0), or it settled
	active []*Job     // built, unsettled jobs: registered by runJob, removed by finishLocked
	live   int        // admitted jobs not yet finished
	busy   int        // executors currently running a batch
	closed bool
	seq    int64

	// stats holds the lifetime counters Stats() reports, guarded by mu.
	// JobsLive and InflightBatches are filled from live and busy at
	// snapshot time; the fault-plan and cache fields from their owners.
	stats Stats

	closedCh  chan struct{}
	slots     chan struct{} // admission tokens, cap queueDepth
	wgJobs    sync.WaitGroup
	wgWorkers sync.WaitGroup
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithDriverConfig sets the run configuration — fleet, plan, kernel,
// traceback, fault injection — in one driver.Config. It is the engine's
// only carrier of those settings: every other option sets engine policy
// alone, so options may come in any order.
func WithDriverConfig(cfg driver.Config) Option { return func(e *Engine) { e.cfg = cfg } }

// WithResultCache attaches a bounded, sharded result cache (second-chance
// eviction: recency-approximating, not exact LRU) shared by every job the
// engine serves, keyed by (extension key, kernel-config
// fingerprint): byte-identical extensions submitted by any client — same
// job or a later one, regardless of pool numbering — are aligned once.
// entries bounds the cache (0 → DefaultResultCacheEntries). The driver
// eliminates duplicate extensions whenever a cache is attached, since the
// cache keys ride on them. Hit/miss/evict counters surface in Stats. The
// bound is per entry: with driver.Config.Traceback each entry also holds
// its alignment's CIGAR (length-proportional), so size entries
// accordingly and watch Stats.CacheBytes for the resident footprint.
func WithResultCache(entries int) Option {
	return func(e *Engine) {
		if entries <= 0 {
			entries = DefaultResultCacheEntries
		}
		e.cacheEntries = entries
	}
}

// WithRetry enables per-batch retry of transient execution failures:
// a batch whose attempt fails with a transient fault (a fault plan's
// FaultTransient, the only error class a re-execution can outrun) is
// re-issued after capped exponential backoff with deterministic jitter,
// up to max retries per batch and budget retries per job (budget <= 0 is
// uncapped). Retrying is provably safe here: batches are idempotent and
// every attempt's results are bit-identical, so the surviving report
// never depends on which attempt delivered — and under WithResultCache a
// retried batch's unique extensions may even return warm. Retries and
// injected faults surface in Stats.
func WithRetry(max, budget int) Option {
	return func(e *Engine) { e.retryMax, e.retryBudget = max, budget }
}

// WithRetryBackoff shapes the retry delay: the nth retry of a batch
// waits base·2ⁿ⁻¹ capped at ceil, plus a small deterministic jitter so
// simultaneous failures do not re-dogpile the fleet. Zero values keep
// the defaults (1ms base, 250ms ceiling). Backoff affects wall time
// only, never results.
func WithRetryBackoff(base, ceil time.Duration) Option {
	return func(e *Engine) { e.backoffBase, e.backoffCap = base, ceil }
}

// WithJobDeadline bounds every submission's wall-clock completion time.
// In the final fifth of the deadline, idle executors hedge: the slowest
// outstanding batch is duplicated onto a second device and the first
// result wins — safe because both executions are bit-identical by
// construction. A job still incomplete at the deadline counts in
// Stats.DeadlineExceeded and settles per WithDegradedMode: fail (the
// default, with ErrDeadline), fallback (remaining batches quarantined to
// the reference host path, full report), or partial (remaining batches
// complete as Failed placeholders).
func WithJobDeadline(d time.Duration) Option {
	return func(e *Engine) { e.deadline = d }
}

// WithDegradedMode selects how a batch that exhausted its fault
// tolerance completes: fail the job (DegradeFail, default), re-run the
// batch on the reference host path for a still-bit-identical report
// (DegradeFallback), or finish with per-comparison Failed status and
// Report.PartialFailures (DegradePartial).
func WithDegradedMode(m DegradedMode) Option {
	return func(e *Engine) { e.degraded = m }
}

// WithQueueDepth bounds in-flight submissions; Submit blocks (or fails
// on context cancellation) once the queue is full.
func WithQueueDepth(n int) Option { return func(e *Engine) { e.queueDepth = n } }

// WithExecutors sets the host-side executor pool width (0 → GOMAXPROCS).
// The engine runs n + 1 executors: the n take any batch, the one more
// only a job's first execution, so a new job's first batch never queues
// behind another job's batches. Executor count changes throughput only,
// never results or reports.
func WithExecutors(n int) Option { return func(e *Engine) { e.executors = n } }

// New starts an engine and its executor pool. Close releases it.
func New(opts ...Option) *Engine {
	e := &Engine{queueDepth: DefaultQueueDepth, clk: clock.Real}
	for _, o := range opts {
		o(e)
	}
	e.normalize()
	if e.cacheEntries > 0 {
		// Keys carry the driver's kernel-config fingerprint, so even a
		// cache handed to differently-configured runs stays sound.
		e.cache = newResultCache(e.cacheEntries)
		e.cfg.Cache = e.cache
	}
	e.gate = ipukernel.NewGate()
	e.cond = sync.NewCond(&e.mu)
	e.landed.L = &e.mu
	e.closedCh = make(chan struct{})
	e.slots = make(chan struct{}, e.queueDepth)
	for i := 0; i <= e.executors; i++ {
		e.wgWorkers.Add(1)
		go e.executor(i == e.executors)
	}
	return e
}

func (e *Engine) normalize() {
	e.cfg = e.cfg.Normalized()
	if e.queueDepth <= 0 {
		e.queueDepth = DefaultQueueDepth
	}
	if e.executors <= 0 {
		e.executors = runtime.GOMAXPROCS(0)
	}
	if e.retryMax < 0 {
		e.retryMax = 0
	}
	if e.backoffBase <= 0 {
		e.backoffBase = time.Millisecond
	}
	if e.backoffCap <= 0 {
		e.backoffCap = 250 * time.Millisecond
	}
	if e.backoffCap < e.backoffBase {
		e.backoffCap = e.backoffBase
	}
	if e.deadline > 0 {
		// Hedging opens in the deadline's final fifth: late enough that
		// healthy batches finish undoubled, early enough that a duplicate
		// still has time to win.
		e.hedgeWindow = e.deadline / 5
	}
}

// Config returns the normalized driver configuration the fleet runs.
func (e *Engine) Config() driver.Config { return e.cfg }

// QueueDepth returns the admission bound: how many submissions may be in
// flight before Submit blocks. Together with Stats.JobsLive it gives the
// queue occupancy a service front-end sheds load on.
func (e *Engine) QueueDepth() int { return e.queueDepth }

// Stats is a snapshot of engine-lifetime aggregates.
type Stats struct {
	// JobsDone counts completed (not cancelled/failed) submissions.
	JobsDone int64
	// BatchesDone counts executed batches across all jobs.
	BatchesDone int64
	// CellsDone sums computed DP cells across executed batches.
	CellsDone int64
	// JobsLive counts admitted, unfinished submissions. With QueueDepth
	// it yields queue occupancy — the service tier's primary load-shedding
	// and autoscaling signal.
	JobsLive int
	// InflightBatches counts executors currently running a batch — the
	// instantaneous fleet utilisation signal. An engine of WithExecutors(n)
	// runs n + 1 executors, so it reaches n + 1 while a job's first
	// execution runs beside n other batches.
	InflightBatches int
	// CacheHits, CacheMisses and CacheEvictions count result-cache
	// activity across all jobs (all zero without WithResultCache).
	CacheHits, CacheMisses, CacheEvictions int64
	// CacheBytes is the result cache's resident footprint (each entry's
	// slot and index share plus its stored CIGAR length). The cache bound
	// is per entry; with traceback enabled entries carry alignment-length
	// CIGARs, and this is where that growth shows up.
	CacheBytes int64
	// CacheEntries counts the extensions the result cache holds, at most
	// the WithResultCache bound.
	CacheEntries int64
	// Retries counts batch re-executions scheduled after transient
	// failures (WithRetry).
	Retries int64
	// Hedges counts duplicate executions issued for slow outstanding
	// batches near a job deadline (WithJobDeadline); the losing copy of a
	// hedged pair is dropped on delivery and never double-counts
	// BatchesDone or a stream.
	Hedges int64
	// Quarantined counts batches that exhausted their fault tolerance and
	// completed degraded — re-run on the reference host path
	// (DegradeFallback) or as Failed placeholders (DegradePartial).
	Quarantined int64
	// FaultsInjected counts everything the installed FaultPlan injected
	// across its lifetime: transient and permanent failures plus
	// straggler delays. Zero without driver.Config.Faults.
	FaultsInjected int64
	// DeadlineExceeded counts jobs whose WithJobDeadline expired with
	// work outstanding.
	DeadlineExceeded int64
	// Traceback fast-path counters over every executed extension:
	// TracedExtensions delivered a recorded trace (CIGAR),
	// TraceSkippedExtensions fell below ipukernel.Config.TraceMinScore's
	// cutoff and delivered score-only results. Disjoint; both zero
	// without driver.Config.Traceback.
	TracedExtensions, TraceSkippedExtensions int64
}

// Add merges o into s — every field sums, which is how the service
// totals its shards.
func (s *Stats) Add(o Stats) {
	s.JobsDone += o.JobsDone
	s.BatchesDone += o.BatchesDone
	s.CellsDone += o.CellsDone
	s.JobsLive += o.JobsLive
	s.InflightBatches += o.InflightBatches
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
	s.CacheBytes += o.CacheBytes
	s.CacheEntries += o.CacheEntries
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.Quarantined += o.Quarantined
	s.FaultsInjected += o.FaultsInjected
	s.DeadlineExceeded += o.DeadlineExceeded
	s.TracedExtensions += o.TracedExtensions
	s.TraceSkippedExtensions += o.TraceSkippedExtensions
}

// Stats returns engine-lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	st.JobsLive = e.live
	st.InflightBatches = e.busy
	e.mu.Unlock()
	if f := e.cfg.Faults; f != nil {
		st.FaultsInjected = f.InjectedTotal()
	}
	if e.cache != nil {
		st.CacheHits = e.cache.hits.Load()
		st.CacheMisses = e.cache.misses.Load()
		st.CacheEvictions = e.cache.evictions.Load()
		st.CacheBytes = e.cache.payloadBytes.Load()
		st.CacheEntries = e.cache.resident()
	}
	return st
}

// Submit enqueues a dataset for alignment and returns immediately with a
// Job handle. It blocks only for admission when QueueDepth jobs are
// already in flight; ctx cancels both the wait and the job itself
// (planning and any not-yet-issued batches). Arena-backed datasets are
// shared, not copied: any number of concurrent submissions of the same
// dataset reference one immutable slab of Ω, and the batches built for a
// job carry spans into it rather than private sequence slices.
func (e *Engine) Submit(ctx context.Context, d *workload.Dataset) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	submitted := e.clk.Now()
	select {
	case <-e.closedCh:
		return nil, ErrClosed
	default:
	}
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.closedCh:
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.slots
		return nil, ErrClosed
	}
	e.seq++
	// The job runs on its own cancellable child of the submission context:
	// the caller's ctx still cancels it, and finishLocked cancels the child
	// when the job settles, so planning that is still running stops.
	jctx, jcancel := context.WithCancel(ctx)
	j := &Job{
		eng:       e,
		ctx:       jctx,
		cancel:    jcancel,
		seq:       e.seq,
		dataset:   d,
		built:     make(chan struct{}),
		doneCh:    make(chan struct{}),
		submitted: submitted,
		stamps:    stamps{segAdmit, submitted},
	}
	admitted := e.clk.Now()
	j.stamps.to(&j.phases, admitted, segDedup)
	if e.deadline > 0 {
		// The clock starts at admission: queue wait was the caller's
		// backpressure, planning and execution are the job's own.
		j.deadline = admitted.Add(e.deadline)
	}
	e.live++
	e.wgJobs.Add(1)
	e.mu.Unlock()
	go e.runJob(j)
	return j, nil
}

// Close stops admissions, waits for every in-flight job to finish and
// shuts the executor pool down. It is idempotent; Submit afterwards
// returns ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wgJobs.Wait()
		e.wgWorkers.Wait()
		return nil
	}
	e.closed = true
	close(e.closedCh)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wgJobs.Wait()
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wgWorkers.Wait()
	return nil
}

// runJob builds the job's plan (cancellable), registers it with the
// scheduler, then watches for cancellation until the job finishes.
func (e *Engine) runJob(j *Job) {
	defer e.wgJobs.Done()
	// The plan's stamps are runJob's own until the job is registered:
	// Submit handed them over before starting it, and nothing else writes
	// them before they are added back under the lock.
	var plan Phases
	st := j.stamps
	bp, err := driver.BuildBatchesMarked(j.ctx, j.dataset, e.cfg, func(s driver.PlanStage) {
		next := segItems
		if s == driver.PlanItemized {
			next = segBatches
		}
		st.to(&plan, e.clk.Now(), next)
	})

	// The fan-out index and cached-results view are O(comparisons);
	// build them outside the engine lock, like BuildBatches itself, so a
	// large dedup-heavy submission cannot stall executors or Submits. The
	// cached view is the stream's own copy, taken before any batch merges
	// into the array it is read from.
	var expand func([]ipukernel.AlignOut) []ipukernel.AlignOut
	var cachedResults []ipukernel.AlignOut
	if err == nil {
		expand = bp.ResultExpander()
		cachedResults = bp.CachedResults()
	}

	// Until the job is registered below, runJob is the only goroutine
	// that can settle it, so no finished re-check is needed here.
	e.mu.Lock()
	j.phases.Add(plan)
	j.stamps = st
	if err != nil {
		e.finishLocked(j, nil, err)
		e.mu.Unlock()
		return
	}
	j.bp = bp
	nb := bp.Batches()
	j.outs = make([]*ipukernel.BatchResult, nb)
	j.expand = expand
	j.cachedResults = cachedResults
	j.batches = make([]batchState, nb) // every batch phasePending
	j.firstIssue = bp.FirstIssue()
	// Registered: a plan with batches executes, one the cache served
	// whole goes straight to its fold.
	now := e.clk.Now()
	if nb == 0 {
		j.stamps.to(&j.phases, now, segComplete)
	} else {
		j.stamps.to(&j.phases, now, segExecute)
	}
	if len(cachedResults) > 0 {
		j.phases.Add(Phases{FirstUpdate: now.Sub(j.submitted)})
	}
	close(j.built)
	if nb == 0 {
		e.mu.Unlock()
		// The cache served every result, and they are the stream's the
		// moment it opens: the consumer built woke takes them now, not
		// after the O(comparisons) fold ("Streaming hand-off").
		runtime.Gosched()
		e.complete(j, bp.NewAssembly())
		return
	}
	e.active = append(e.active, j)
	if !j.deadline.IsZero() {
		e.armLocked(j)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	select {
	case <-j.ctx.Done():
		e.mu.Lock()
		if !j.finished {
			e.finishLocked(j, nil, j.ctx.Err())
		}
		e.mu.Unlock()
	case <-j.doneCh:
	}
}

// armLocked arms a deadlined job's two alarms: one wakes idle executors
// when the hedge window opens, ending the first-batch hold if it still
// stands (the release goes to the first-issued batch, the one a hold is
// on, so another batch's delivery cannot drop it), one settles (or
// degrades) the job at the deadline itself. Settlement stops both; a
// callback that already fired re-checks under the lock and becomes a
// no-op.
func (e *Engine) armLocked(j *Job) {
	j.alarms[0] = e.clk.AfterFunc(j.deadline.Sub(e.clk.Now())-e.hedgeWindow, func() {
		e.mu.Lock()
		j.step(j.firstIssue, evRelease, nil, nil)
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	j.alarms[1] = e.clk.AfterFunc(j.deadline.Sub(e.clk.Now()), func() { e.deadlineExpired(j) })
}

// pickLocked chooses the next execution to issue: among built jobs with
// work left, the one with the fewest issued executions (ties broken by
// submission order) — a per-job fair share that keeps a flood of batches
// from one client from starving the rest. Ready retries re-issue before
// fresh batches, which issue in the job's issue order (Job.issueAt). With
// nothing to issue and a job deadline configured, it falls back to
// hedging: inside a job's hedge window the slowest outstanding batch is
// duplicated once (first result wins), so a single straggling device
// cannot push an otherwise-finished job past its deadline. The chosen
// batch is stepped here, under the lock, so concurrent executors never
// double-pick; a hedge then runs exactly like any other attempt.
//
// A job's first execution, if the job has streamed nothing yet (a plan
// the cache served in part has), computes alone: its evIssue marks the
// job alone, and nothing else of it is issued until the hold's evRelease
// — that execution has computed (Engine.computed) or returned (deliver),
// or its hedge window opened (the first alarm) — or until it settles. The
// first result waits on one batch at the whole host's width, not on two
// at half of it.
//
// The first-only executor (firstOnly) takes first executions alone
// (Job.first) and never hedges: it is free for a new job's first batch
// whatever the other executors run.
func (e *Engine) pickLocked(firstOnly bool) (*Job, int) {
	var best *Job
	for _, j := range e.active {
		if j.alone || len(j.ready) == 0 && j.nextIssue == len(j.batches) {
			continue // held back, or nothing queued and nothing fresh
		}
		if firstOnly && !j.first() {
			continue
		}
		if best == nil || j.issued < best.issued ||
			(j.issued == best.issued && j.seq < best.seq) {
			best = j
		}
	}
	if best != nil {
		bi := best.issueAt(best.nextIssue)
		if n := len(best.ready); n > 0 {
			bi = best.ready[n-1]
		}
		best.step(bi, evIssue, nil, nil)
		return best, bi
	}
	if e.deadline <= 0 || firstOnly {
		return nil, -1
	}
	var hj *Job
	hbi := -1
	var earliest int64
	for _, j := range e.active {
		if !e.hedgeOpen(j) {
			continue
		}
		for bi := range j.batches {
			b := &j.batches[bi]
			if b.phase != phaseRunning || b.inflight == 0 || b.hedged {
				continue
			}
			if hbi == -1 || b.startNS < earliest {
				hj, hbi, earliest = j, bi, b.startNS
			}
		}
	}
	if hj == nil {
		return nil, -1
	}
	hj.step(hbi, evHedge, nil, nil)
	return hj, hbi
}

// hedgeOpen reports whether j's hedge window has opened.
func (e *Engine) hedgeOpen(j *Job) bool {
	return !j.deadline.IsZero() && !e.clk.Now().Before(j.deadline.Add(-e.hedgeWindow))
}

// executor is one device-executor goroutine: it owns a modeled device
// and pulls batches from whichever job the fair-share policy selects —
// the earliest-free-device rule falls out of executors pulling work the
// moment they go idle. The first-only executor (firstOnly) pulls first
// executions alone.
func (e *Engine) executor(firstOnly bool) {
	defer e.wgWorkers.Done()
	// The engine's configuration is fixed, so one device per executor,
	// created lazily on first work, serves every job.
	var dev *ipu.Device
	for {
		e.mu.Lock()
		var j *Job
		var bi int
		for {
			j, bi = e.pickLocked(firstOnly)
			if j != nil {
				break
			}
			if e.closed && e.live == 0 {
				e.mu.Unlock()
				return
			}
			e.cond.Wait()
		}
		attempt := int(j.batches[bi].attempts) - 1 // step counted this issue
		fallback := j.batches[bi].fallback
		issued := j.batches[bi].issuedNS
		e.busy++
		// Split the CPU budget between each batch's tile pool and the
		// executors that will plausibly run alongside this one: the busy
		// ones plus however many of the remaining runnable batches the
		// pool can absorb. A saturated engine gives each batch one thread
		// — and a burst of picks converges immediately instead of letting
		// the first few batches keep full-width pools. A job's first
		// execution, which computes alone (pickLocked), gets the whole
		// machine whatever else runs: the job's first result waits on it.
		// Parallelism never affects results, only wall time.
		width := e.busy + e.runnableLocked()
		if width > e.executors {
			width = e.executors
		}
		alone := j.alone
		if alone {
			width = 1
		}
		// Capture the plan while locked: a settled job's bp is released,
		// and this batch may race a cancellation.
		bp := j.bp
		kcfg := bp.KernelConfig(width)
		e.mu.Unlock()
		if dev == nil {
			dev = bp.NewDevice()
		}
		if fallback {
			// Quarantined work runs on the reference host path, outside
			// the fleet and its fault plan.
			out, err := bp.ExecBatchHost(bi, kcfg)
			e.deliver(j, bi, evReturnHost, out, err, issued, 0)
		} else {
			// The job's context ends a straggler's wait once the job has
			// settled, so a settled job parks no executor. The wait comes
			// after the compute, and a first execution's hold ends before
			// it. A first execution goes first at the engine's tile gate;
			// every other one yields to it between tiles.
			var computed func()
			if alone {
				computed = func() { e.computed(j, bi) }
			}
			out, pin, err := bp.ExecBatchAttempt(j.ctx, dev, bi, attempt, kcfg, e.gate.Turn(alone), e.clk, computed)
			e.deliver(j, bi, evReturn, out, err, issued, pin)
		}
	}
}

// computed runs once batch bi's fleet execution has computed: it ends the
// job's first-batch hold if this execution held it.
func (e *Engine) computed(j *Job, bi int) {
	e.mu.Lock()
	j.step(bi, evRelease, nil, nil)
	e.mu.Unlock()
}

// runnableLocked counts executions not yet handed to an executor.
func (e *Engine) runnableLocked() int {
	n := 0
	for _, j := range e.active {
		n += len(j.batches) - j.nextIssue + len(j.ready)
	}
	return n
}

// deliver hands one returned execution (returned is evReturn or
// evReturnHost) to deliverLocked and lands what it delivers.
func (e *Engine) deliver(j *Job, bi int, returned batchEvent, out *ipukernel.BatchResult, err error, issued int64, pin time.Duration) {
	e.mu.Lock()
	e.busy--
	if e.deliverLocked(j, bi, returned, out, err, issued, pin) {
		e.land(j, bi)
		return
	}
	e.mu.Unlock()
}

// deliverLocked steps one returned execution through the batch's state
// machine and reports whether the batch was delivered, so its caller
// lands it in the same hold of e.mu. Job.step classifies failures —
// transient faults retry within the engine's policy, everything else
// degrades — and settles hedged batches first-result-wins: the losing
// copy is dropped before it can touch stats, the stream or the report.
// issued is when the execution was issued (UnixNano on the engine's
// clock) and pin how long its slab pin took, for the job's Phases.
func (e *Engine) deliverLocked(j *Job, bi int, returned batchEvent, out *ipukernel.BatchResult, err error, issued int64, pin time.Duration) bool {
	if j.finished {
		return false
	}
	j.step(bi, evRelease, nil, nil) // returned or failed: a first execution holds no longer
	first := j.batches[bi].firstNS
	j.phases.Add(Phases{Pin: pin, Exec: time.Duration(e.clk.Now().UnixNano()-issued) - pin})
	if out = j.step(bi, returned, out, err); out == nil {
		return false
	}
	j.phases.Add(Phases{Wait: time.Duration(issued - first)})
	j.step(bi, evDeliver, out, nil)
	return true
}

// A landing is one delivered batch on its way into the job's report and
// onto its stream. Engine.landStep moves it through its events.
type landing struct {
	bi             int
	next           landEvent
	first          bool // the job's first delivered batch: it publishes, then allocates the report
	streaming      bool // the stream was open when the landing began; a replay waits for it to end
	sent           bool // the update went onto the stream
	out            *ipukernel.BatchResult
	bp             *driver.BatchPlan
	asm            *driver.Assembly
	err            error
	merge, publish time.Duration
}

// landEvent is a landing's event, in the order they happen.
type landEvent uint8

const (
	evLand    landEvent = iota // the batch was delivered: the landing begins
	evPublish                  // the update goes onto the stream
	evLanded                   // the report holds the batch: the landing ends
	landEnded
)

// waiting reports whether landing l waits for the job's report: a batch
// delivered after the first merges before it publishes, so until the
// first landing has allocated the report, or the job has settled, it
// cannot go on.
func (l *landing) waiting(j *Job) bool {
	return l.next == evPublish && !l.first && j.asm == nil && !j.finished
}

// land records delivered batch bi in the job's report and publishes it to
// the stream: it runs the batch's landing from its first event to its
// last, waiting where the landing waits. It is called with e.mu held,
// right after the batch's evDeliver, and releases it.
//
// A streamed delivery ends by yielding the processor. The send cannot
// block (the channel holds the whole schedule), so it only marks the
// consumer runnable; an executor is CPU-bound and never parks while work
// is queued, and with as many executors as processors the consumer would
// otherwise first run when sysmon preempts one of them — 10 ms later, a
// dozen batches into the job. Handing over here is what makes the stream
// a stream: the consumer takes the update now, parks again on the empty
// channel, and the executor resumes. On a job's last batch the yield
// follows complete, so the same hand-off carries the close and the
// report; on the first it precedes the allocation.
func (e *Engine) land(j *Job, bi int) {
	l := landing{bi: bi}
	for e.landStep(j, &l) {
		for l.waiting(j) {
			e.landed.Wait()
		}
	}
	e.mu.Unlock()
	if l.sent && !l.first {
		runtime.Gosched()
	}
}

// landStep runs landing l's next event: the work that comes before it,
// outside the lock, then the event, under it. It is called, and returns,
// with e.mu held, and reports whether l has events left; it is not called
// while l is waiting. It alone writes the job's landing count and report
// (settlement releases the report).
//
// evLand counts the landing in and marks the batch delivered first
// (Job.done is 1: a delivery and its evLand share one hold of the lock).
// Before evPublish a later landing merges into the report
// (driver.Assembly.Merge) and builds its update: without dedup the
// batch's own Out, which the consumer then owns, under dedup the fan-out,
// a fresh array, while the report merges the raw results at their
// extensions' ordinals. The first landing publishes before the report
// exists, to keep an O(comparisons) allocation off the first result's
// path (a plan built against a cache allocates nothing there: the report
// adopts its lookup's array), so its update is a copy; then it allocates
// the report and merges, and its evLanded hands the report over.
// evLanded counts the landing out, and the one that drains the count once
// every batch is delivered completes the job: no merge or send is still
// to come then, nor when a stream replay, which waits for the drain, runs.
func (e *Engine) landStep(j *Job, l *landing) bool {
	switch l.next {
	case evLand:
		j.landing++
		l.first, l.streaming = j.done == 1, j.streaming
		l.out, l.bp = j.outs[l.bi], j.bp
	case evPublish:
		l.asm = j.asm
		e.mu.Unlock()
		t := e.clk.Now()
		if l.asm != nil {
			l.err = l.asm.Merge(l.out)
		}
		merged := e.clk.Now()
		var upd Update
		if l.streaming {
			upd = streamUpdate(j, l.bi, l.out)
			if l.first && j.expand == nil {
				upd.Results = slices.Clone(upd.Results) // the report has yet to read out.Out
			}
		}
		e.mu.Lock()
		live := l.err == nil && !j.finished
		if l.sent = live && l.streaming; l.sent {
			j.updates <- upd
		}
		published := e.clk.Now()
		l.merge, l.publish = merged.Sub(t), published.Sub(merged)
		if live && l.first && len(j.cachedResults) == 0 {
			j.phases.Add(Phases{FirstUpdate: published.Sub(j.submitted)})
		}
	case evLanded:
		alloc := l.first && l.err == nil && !j.finished
		if l.first {
			e.mu.Unlock()
			if l.sent {
				runtime.Gosched()
			}
			if alloc {
				t := e.clk.Now()
				l.asm = l.bp.NewAssembly()
				l.err = l.asm.Merge(l.out)
				l.merge += e.clk.Now().Sub(t)
			}
			e.mu.Lock()
		}
		if !j.finished {
			if alloc {
				j.asm = l.asm
			}
			j.phases.Add(Phases{Merge: l.merge, Publish: l.publish})
			if l.err != nil {
				e.finishLocked(j, nil, l.err)
			}
		}
		j.landing--
		e.landed.Broadcast()
		if j.landing == 0 && !j.finished && j.done == len(j.outs) {
			j.stamps.to(&j.phases, e.clk.Now(), segComplete)
			asm := j.asm
			e.mu.Unlock()
			e.complete(j, asm)
			e.mu.Lock()
		}
	}
	l.next++
	return l.next < landEnded
}

// backoffFor shapes the delay before batch bi's next attempt:
// exponential from the base, capped at the ceiling, plus deterministic
// jitter (up to half the step, hashed from job, batch and attempt) so
// a burst of simultaneous failures does not re-dogpile the fleet in
// lockstep. Deterministic jitter keeps chaos runs reproducible.
func (e *Engine) backoffFor(j *Job, bi, attempt int) time.Duration {
	d := e.backoffBase
	for i := 1; i < attempt && d < e.backoffCap; i++ {
		d *= 2
	}
	if d > e.backoffCap {
		d = e.backoffCap
	}
	h := uint64(j.seq)*0x9e3779b97f4a7c15 ^
		uint64(int64(bi))*0xbf58476d1ce4e5b9 ^
		uint64(int64(attempt))*0x94d049bb133111eb
	h ^= h >> 33
	return d + time.Duration(h%uint64(d/2+1))
}

// deadlineExpired is the deadline timer's callback: a job still
// incomplete when it fires counts in Stats.DeadlineExceeded and settles
// per the engine's DegradedMode — fail with ErrDeadline, quarantine all
// remaining work to the reference host path, or complete immediately
// with Failed placeholders (late in-flight deliveries then find their
// batch delivered and drop). Timers arm only after the plan is built, so
// j.batches is always populated here.
func (e *Engine) deadlineExpired(j *Job) {
	e.mu.Lock()
	if j.finished || j.done == len(j.outs) {
		e.mu.Unlock()
		return
	}
	e.stats.DeadlineExceeded++
	// The batches go in issue order, so pending ones leave phasePending in
	// the order nextIssue counts them: a landing below lets go of the
	// lock, and an executor may issue meanwhile.
	switch e.degraded {
	case DegradeFallback:
		for pos := range j.batches {
			j.step(j.issueAt(pos), evQuarantine, nil, nil)
		}
		e.mu.Unlock()
	case DegradePartial:
		// Each placeholder batch lands before the next is delivered, so
		// the last one's landing completes the job.
		for pos := range j.batches {
			if bi := j.issueAt(pos); j.step(bi, evDeadlinePartial, nil, nil) != nil {
				e.land(j, bi)
				e.mu.Lock()
			}
		}
		e.mu.Unlock()
	default:
		e.finishLocked(j, nil, ErrDeadline)
		e.mu.Unlock()
	}
}

// complete assembles the finished job's report — bit-identical to
// driver.Run on the same dataset and configuration. Every batch has
// already merged into asm, so only the fold is left: the batch-order
// accounting and, under dedup, the cache fill and the fan-out,
// O(comparisons), which is why it runs outside the engine lock: every
// batch has landed by now, nothing else writes j.outs, and a racing
// cancellation simply wins the settlement below. The caller captured asm
// under the lock, since a settled job releases it.
func (e *Engine) complete(j *Job, asm *driver.Assembly) {
	plan, err := asm.Fold(j.outs)
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.finished { // cancelled while assembling
		return
	}
	if err != nil {
		e.finishLocked(j, nil, err)
		return
	}
	e.stats.JobsDone++
	e.finishLocked(j, plan.Schedule(e.cfg.IPUs), nil)
}

// streamUpdate builds the streamed view of landed batch bi. Under dedup
// the results are fanned out to per-comparison space (a fresh slice, so
// the Update contract holds); otherwise they are the batch's own Out,
// capacity-capped so an append cannot reach past it. Either way the
// consumer owns them: the report took its copy when the batch landed or,
// under dedup, is assembled from the raw results the stream never sees.
// The channel's capacity covers the whole schedule, so sends never block
// an executor even if the consumer stops reading.
func streamUpdate(j *Job, bi int, out *ipukernel.BatchResult) Update {
	results := out.Out[:len(out.Out):len(out.Out)]
	if j.expand != nil {
		results = j.expand(out.Out)
	}
	return Update{
		Batch:   bi,
		Batches: len(j.outs),
		Results: results,
		Seconds: out.Seconds,
	}
}

// cachedChunkResults bounds one cache-served update. A consumer that
// encodes, sends or parses an update works on the first of these while
// the next are still queued, so a cache-served job's first result costs
// one chunk, not the whole job (≈ 55 KB as an NDJSON line).
const cachedChunkResults = 512

// openStreamLocked creates the job's update channel on first demand and
// replays already-delivered batches into it, so Results works the same
// no matter when it is called. Results the build served from the result
// cache lead the stream as Batch == -1 updates of at most
// cachedChunkResults each — they belong to no executed batch but the
// stream must still carry every comparison. The updates are windows of
// the one cachedResults array, capacity capped so an append by one
// consumer cannot reach into the next window. The replay first waits for
// the job's land calls to drain, so every batch it hands over has been
// merged into the report and none is still on its way to the stream.
func (j *Job) openStreamLocked() {
	for j.updates == nil && j.landing > 0 {
		j.eng.landed.Wait()
	}
	if j.updates != nil {
		return
	}
	cached := j.cachedResults
	lead := (len(cached) + cachedChunkResults - 1) / cachedChunkResults
	j.updates = make(chan Update, lead+len(j.outs))
	for lo := 0; lo < len(cached); lo += cachedChunkResults {
		hi := min(lo+cachedChunkResults, len(cached))
		j.updates <- Update{Batch: -1, Batches: len(j.outs), Results: cached[lo:hi:hi]}
	}
	for bi, out := range j.outs {
		if out != nil {
			j.updates <- streamUpdate(j, bi, out)
		}
	}
	if j.finished {
		close(j.updates)
	} else {
		j.streaming = true
	}
}

// finishLocked settles a job exactly once: records the outcome, closes
// the stream, drops the job from the scheduler, releases the admission
// slot and wakes everyone.
func (e *Engine) finishLocked(j *Job, rep *driver.Report, err error) {
	// The last stamp: the open segment ends here, and with it the job's
	// wall time.
	now := e.clk.Now()
	j.stamps.to(&j.phases, now, segSettled)
	j.phases.Add(Phases{Wall: now.Sub(j.submitted)})
	// Stop pending backoff and deadline timers and drop the lifecycle
	// records; a timer callback that already fired finds the job settled
	// under the lock and no-ops.
	for bi := range j.batches {
		j.step(bi, evSettle, nil, nil)
	}
	for _, t := range j.alarms {
		if t != nil {
			t.Stop()
		}
	}
	j.finished = true
	j.report = rep
	j.err = err
	j.batches = nil
	j.ready = nil
	if j.cancel != nil {
		j.cancel() // release the job's derived context
	}
	if j.streaming {
		close(j.updates)
		j.streaming = false
	}
	close(j.doneCh)
	// Release the batched sequence payload and the input dataset: a
	// caller-retained Job handle must pin only the report and the
	// replayable outs, not the submission's working set. Executors
	// capture bp into locals under the lock before using it.
	j.bp = nil
	j.asm = nil
	j.dataset = nil
	// An idle engine must not keep a settled job's partial results alive.
	if i := slices.Index(e.active, j); i >= 0 {
		e.active = slices.Delete(e.active, i, i+1)
	}
	e.live--
	<-e.slots
	e.cond.Broadcast()
	e.landed.Broadcast() // landings waiting for the report
}
