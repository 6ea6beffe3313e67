package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/partition"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// TestFirstBatchComputesAlone: until a job has streamed its first update,
// its first execution computes alone, on the whole host, so the first
// update is its first-issued batch's (BatchPlan.FirstIssue, not batch 0 on
// this plan). On the ≈ 60-batch schedule of
// TestFirstUpdateNotStarvedByExecutors with two executors, every job's
// first update is that batch and, when it has computed, it is the only
// execution of its job ever issued (a lab of the same plan issues until
// nothing more will). Without the hold the two executors split the host
// between the first two batches issued and the second often lands first.
func TestFirstBatchComputesAlone(t *testing.T) {
	const executors, jobs = 2, 6
	d, cfg := handoffPlan(t)
	f := firstIssue(t, d, cfg)
	e := New(WithDriverConfig(cfg), WithExecutors(executors))
	defer e.Close()
	l := newLab(t, newLabScenario(t, d, cfg))
	for l.canIssueLocked() {
		l.apply(move{mIssue, 0}, true)
	}
	l.e.mu.Lock()
	issued := l.j.issued
	l.e.mu.Unlock()
	if issued != 1 {
		t.Errorf("%d executions issued when batch 0 had computed, want 1", issued)
	}
	l.apply(move{mCompute, 0}, true)
	l.run()
	if _, err := l.j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	for n := range jobs {
		job := submit(t, e, d)
		updates := job.Results()
		first, ok := <-updates
		for range updates {
		}
		wait(t, job)
		if !ok || first.Batches < 32 {
			t.Fatalf("job %d: first update %+v; the test needs a schedule of ≥ 32 batches", n, first)
		}
		if first.Batch != f {
			t.Errorf("job %d: first update is batch %d of %d, want batch %d", n, first.Batch, first.Batches, f)
		}
	}
}

// TestFirstBatchHoldReleases: the first-batch hold covers computing only.
// A first execution that straggles or fails transiently leaves the job's
// other batches issuable without the manual clock moving; one still
// computing when its job is cancelled or its hedge window opens holds
// nothing from then on; and a job the cache served in part, whose first
// update came at registration, holds nothing at all. The faults hit the
// first-issued batch (BatchPlan.FirstIssue), the one that holds, which on
// this plan is not batch 0.
func TestFirstBatchHoldReleases(t *testing.T) {
	d := readsData(t, 61, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	nb := probePlan(t, d, cfg).Batches()
	if nb < 3 {
		t.Fatalf("want several batches, got %d", nb)
	}
	f := firstIssue(t, d, cfg)
	want := runRef(t, d, cfg)

	// The fault on the first-issued batch's first attempt, and none
	// anywhere else: the first seed whose plan draws exactly that.
	onlyFirst := func(kind driver.FaultKind, spec driver.FaultSpec) *driver.FaultPlan {
		t.Helper()
		for seed := int64(1); seed < 10000; seed++ {
			p := driver.NewFaultPlan(seed, spec)
			ok := p.Kind(f, 0) == kind && p.Kind(f, 1) == driver.FaultNone
			for bi := 0; ok && bi < nb; bi++ {
				ok = bi == f || p.Kind(bi, 0) == driver.FaultNone
			}
			if ok {
				return p
			}
		}
		t.Fatalf("no seed faults batch %d alone with %v", f, kind)
		return nil
	}
	// Every other batch streams while the first-issued batch's first
	// execution waits on the clock.
	othersStream := func(t *testing.T, updates <-chan Update) {
		t.Helper()
		for range nb - 1 {
			if u := nextUpdate(t, updates); u.Batch == f {
				t.Fatalf("batch %d streamed before the clock moved", f)
			}
		}
	}
	finish := func(t *testing.T, e *Engine, job *Job, updates <-chan Update) {
		t.Helper()
		if u := nextUpdate(t, updates); u.Batch != f {
			t.Fatalf("last update is batch %d, want %d", u.Batch, f)
		}
		got := wait(t, job)
		reportsEqual(t, "held job", got, want)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("straggler", func(t *testing.T) {
		plan := onlyFirst(driver.FaultStraggler, driver.FaultSpec{StragglerRate: 0.2, StragglerDelay: time.Hour})
		clk := new(clock.Manual)
		e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2), withClock(clk))
		job := submit(t, e, d)
		updates := job.Results()
		othersStream(t, updates)
		awaitTimers(t, clk, 1) // the first-issued batch's straggle, armed after it computed
		clk.Advance(time.Hour)
		finish(t, e, job, updates)
	})

	t.Run("transient", func(t *testing.T) {
		plan := onlyFirst(driver.FaultTransient, driver.FaultSpec{TransientRate: 0.2})
		clk := new(clock.Manual)
		e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2), withClock(clk),
			WithRetry(1, 0), WithRetryBackoff(time.Second, time.Second))
		job := submit(t, e, d)
		updates := job.Results()
		othersStream(t, updates)
		awaitTimers(t, clk, 1) // the first-issued batch's backoff
		clk.Advance(2 * time.Second)
		finish(t, e, job, updates)
		if st := e.Stats(); st.Retries != 1 {
			t.Fatalf("Retries = %d, want 1", st.Retries)
		}
	})

	// The next three hold a first execution mid-compute on a lab of the
	// plan: it is issued and has not computed.
	sc := newLabScenario(t, d, cfg)
	held := func(t *testing.T, sc *labScenario) *lab {
		t.Helper()
		l := newLab(t, sc)
		l.apply(move{mIssue, 0}, true)
		return l
	}

	t.Run("cancelled", func(t *testing.T) {
		l := held(t, sc)
		l.apply(move{mCancel, 0}, true)
		if _, err := l.j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("job err = %v, want context.Canceled", err)
		}
		// The cancelled job's first execution still computes; the other
		// executor serves the next job whole.
		next := l.another()
		next.run()
		got, err := next.j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "job after a cancelled hold", got, want)
		l.apply(move{mCompute, 0}, false) // the engine's stats are the next job's now
		l.apply(move{mReturn, 0}, false)
	})

	t.Run("hedge-window", func(t *testing.T) {
		sc := *sc
		sc.deadline = true
		l := held(t, &sc)
		updates := l.j.Results()
		l.e.mu.Lock()
		issued := l.j.issued
		l.e.mu.Unlock()
		if issued != 1 || l.canIssueLocked() {
			t.Fatalf("%d executions issued while the first computes, more can issue: %v; want 1, false", issued, l.canIssueLocked())
		}
		l.apply(move{mWindow, 0}, true) // the hedge window opens
		for l.canIssueLocked() && len(updates) == 0 {
			l.apply(move{mIssue, 0}, true)
			l.apply(move{mReturn, len(l.execs) - 1}, true)
			for len(l.landers) > 0 {
				l.apply(move{mLand, 0}, true)
			}
		}
		if u := nextUpdate(t, updates); u.Batch == f {
			t.Fatalf("batch %d streamed while its execution was held", f)
		}
		l.run()
		if _, err := l.j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cache-served-in-part", func(t *testing.T) {
		pairs := synth.UniformPairs(synth.UniformPairsSpec{
			Count: 700, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 37})
		ccfg := cacheTestConfig()
		ccfg.MaxBatchJobs = 16
		ccfg.Cache = newResultCache(1 << 12)
		if _, err := driver.Run(pairs.WithComparisons(pairs.Comparisons[:600]), ccfg); err != nil {
			t.Fatal(err)
		}
		// The mixed job's first execution is mid-compute; a second one of
		// the same job must issue meanwhile.
		l := held(t, newLabScenario(t, pairs, ccfg))
		if !l.canIssueLocked() {
			t.Fatal("no other batch can issue: a job the cache served in part is held")
		}
		l.apply(move{mIssue, 0}, true)
		l.run()
		rep, err := l.j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits != 600 || rep.Batches < 2 {
			t.Fatalf("mixed job: %d hits over %d batches, want 600 over ≥ 2", rep.CacheHits, rep.Batches)
		}
	})
}

// firstIssue returns the batch d's plan under cfg issues first, failing
// the test when that is batch 0: a test that addresses the first-issued
// batch must tell it from the first by index.
func firstIssue(t *testing.T, d *workload.Dataset, cfg driver.Config) int {
	t.Helper()
	f := probePlan(t, d, cfg).FirstIssue()
	if f == 0 {
		t.Fatal("the plan issues batch 0 first; the test needs another")
	}
	return f
}

// TestFirstIssueIsCheapestBatch: a job issues its plan's least-cost batch
// first — the argmin of the batcher's §4.2 estimate summed over each
// batch's comparisons, the lowest index on a tie — then every other batch
// in index order, each once. Plans of uniform pairs, every comparison
// priced alike, tie when their batches hold as many comparisons each, and
// a short last batch is the cheapest. A one-batch plan and a plan the
// cache served whole issue from batch 0.
func TestFirstIssueIsCheapestBatch(t *testing.T) {
	// argmin prices each batch of bp as the batcher does. No comparison
	// of these datasets duplicates another, so the plan executes d itself
	// and a placeholder's GlobalID is d's comparison.
	argmin := func(t *testing.T, d *workload.Dataset, bp *driver.BatchPlan) int {
		t.Helper()
		best, least, n := 0, 0.0, 0
		for bi := range bp.Batches() {
			cost := 0.0
			for _, o := range bp.FailedBatchResult(bi).Out {
				cost += partition.CostEstimate(d.ExtensionLens(d.Comparisons[o.GlobalID]))
				n++
			}
			if bi == 0 || cost < least {
				best, least = bi, cost
			}
		}
		if n != len(d.Comparisons) {
			t.Fatalf("the plan executes %d of %d comparisons", n, len(d.Comparisons))
		}
		return best
	}
	// order issues every batch of bp through pickLocked, releasing the
	// first one's hold, and returns the batches in the order they issued.
	order := func(t *testing.T, bp *driver.BatchPlan) []int {
		t.Helper()
		e, j := newMachine(bp, DegradeFail)
		e.mu.Lock()
		defer e.mu.Unlock()
		var got []int
		for {
			pj, bi := e.pickLocked(false)
			if pj == nil {
				break
			}
			if got = append(got, bi); len(got) > bp.Batches() {
				t.Fatalf("issued %v from %d batches", got, bp.Batches())
			}
			j.step(bi, evRelease, nil, nil)
		}
		e.finishLocked(j, nil, errors.New("test over"))
		return got
	}
	uniform := func(count, perBatch int) (*workload.Dataset, driver.Config) {
		d := synth.UniformPairs(synth.UniformPairsSpec{Count: count, Length: 300, ErrorRate: 0.1, SeedLen: 17, Seed: 5})
		cfg := testCfg(1)
		cfg.MaxBatchJobs = perBatch
		return d, cfg
	}
	handoff, handoffCfg := handoffPlan(t)
	reads, readsCfg := readsData(t, 61, 24), testCfg(1)
	readsCfg.MaxBatchJobs = 4
	tied, tiedCfg := uniform(24, 6)
	short, shortCfg := uniform(22, 6)
	one, oneCfg := labPlan(t, 1)
	for _, c := range []struct {
		name      string
		d         *workload.Dataset
		cfg       driver.Config
		batches   int // 0: any number
		wantFirst int // -1: not batch 0
	}{
		{"handoff", handoff, handoffCfg, 0, -1},
		{"reads", reads, readsCfg, 0, -1},
		{"tied", tied, tiedCfg, 4, 0},
		{"short-last", short, shortCfg, 4, 3},
		{"one-batch", one, oneCfg, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			bp := probePlan(t, c.d, c.cfg)
			nb, f := bp.Batches(), bp.FirstIssue()
			if c.batches > 0 && nb != c.batches {
				t.Fatalf("%d batches, want %d", nb, c.batches)
			}
			if want := argmin(t, c.d, bp); f != want {
				t.Fatalf("FirstIssue = %d, the estimate's argmin is batch %d", f, want)
			}
			if c.wantFirst >= 0 && f != c.wantFirst || c.wantFirst < 0 && f == 0 {
				t.Fatalf("FirstIssue = %d, want %d (-1: not 0)", f, c.wantFirst)
			}
			want := []int{f}
			for bi := range nb {
				if bi != f {
					want = append(want, bi)
				}
			}
			if got := order(t, bp); !slices.Equal(got, want) {
				t.Fatalf("batches issued in the order %v, want %v", got, want)
			}
		})
	}

	t.Run("cache-served", func(t *testing.T) {
		cfg := cacheTestConfig()
		cfg.Cache = newResultCache(1 << 12)
		if _, err := driver.Run(reads, cfg); err != nil {
			t.Fatal(err)
		}
		if bp := probePlan(t, reads, cfg); bp.Batches() != 0 || bp.FirstIssue() != 0 {
			t.Fatalf("a plan the cache served whole: %d batches, FirstIssue = %d; want 0, 0", bp.Batches(), bp.FirstIssue())
		}
	})
}

// nextUpdate receives one update, or fails the test if none comes.
func nextUpdate(t *testing.T, updates <-chan Update) Update {
	t.Helper()
	select {
	case u, ok := <-updates:
		if !ok {
			t.Fatal("stream closed early")
		}
		return u
	case <-time.After(10 * time.Second):
		t.Fatal("no update: the job's other batches are held")
	}
	return Update{}
}

// TestFirstExecutionNotQueuedBehindExecutors: the first-only executor is
// free for a job's first execution whatever the others run. Every batch
// of the plan but the first-issued one (BatchPlan.FirstIssue) straggles
// for an hour on a manual clock that does not move, so both regular
// executors of WithExecutors(2) end up parked on job A's batches; job B's
// first execution is still issued, and streams, before any of them
// returns. Without the extra executor, or with one that takes any batch,
// B waits for the clock.
func TestFirstExecutionNotQueuedBehindExecutors(t *testing.T) {
	d := readsData(t, 61, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	nb := probePlan(t, d, cfg).Batches()
	if nb < 4 {
		t.Fatalf("want ≥ 4 batches, got %d", nb)
	}
	f := firstIssue(t, d, cfg)
	want := runRef(t, d, cfg)
	var plan *driver.FaultPlan
	for seed := int64(1); plan == nil && seed < 100000; seed++ {
		p := driver.NewFaultPlan(seed, driver.FaultSpec{StragglerRate: 0.9, StragglerDelay: time.Hour})
		ok := true
		for bi := 0; ok && bi < nb; bi++ {
			ok = (p.Kind(bi, 0) == driver.FaultStraggler) != (bi == f)
		}
		if ok {
			plan = p
		}
	}
	if plan == nil {
		t.Fatalf("no seed straggles every batch but batch %d", f)
	}
	clk := new(clock.Manual)
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2), withClock(clk))
	var jobs []*Job
	// The clock moves until every job has settled: each straggle ends.
	settle := func() {
		for _, j := range jobs {
			for settled := false; !settled; {
				select {
				case <-j.doneCh:
					settled = true
				default:
					clk.Advance(time.Hour)
					runtime.Gosched()
				}
			}
		}
	}
	defer e.Close()
	defer settle() // a failed test leaves no executor parked on the clock
	a := submit(t, e, d)
	jobs = append(jobs, a)
	awaitTimers(t, clk, 2) // both regular executors wait out a straggle of A's
	b := submit(t, e, d)
	jobs = append(jobs, b)
	if u := nextUpdate(t, b.Results()); u.Batch != f {
		t.Fatalf("job B's first update is batch %d, want %d", u.Batch, f)
	}
	e.mu.Lock()
	for bi, out := range a.outs {
		if out != nil && bi != f {
			t.Errorf("job A's batch %d was delivered before the clock moved", bi)
		}
	}
	e.mu.Unlock()
	settle()
	for _, j := range jobs {
		reportsEqual(t, "straggled job", wait(t, j), want)
	}
}

// TestEnginesDoNotShareGate: each engine orders its executions at a tile
// gate of its own, so two engines in one process never gate each other
// (TestGatesAreIndependent in ipukernel holds two gates apart).
func TestEnginesDoNotShareGate(t *testing.T) {
	e1, e2 := New(), New()
	defer e1.Close()
	defer e2.Close()
	if e1.gate == nil || e1.gate == e2.gate {
		t.Fatalf("engines' gates %p and %p: want two", e1.gate, e2.gate)
	}
}
