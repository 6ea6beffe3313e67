package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestFirstBatchComputesAlone: until a job has streamed its first update,
// its first execution computes alone, on the whole host, so the first
// update is batch 0's. On the ≈ 60-batch schedule of
// TestFirstUpdateNotStarvedByExecutors with two executors, every job's
// first update is batch 0 and, when batch 0 has computed, it is the only
// execution of its job ever issued (a lab of the same plan issues until
// nothing more will). Without the hold the two executors split the host
// between batches 0 and 1 and batch 1 often lands first.
func TestFirstBatchComputesAlone(t *testing.T) {
	const executors, jobs = 2, 6
	d, cfg := handoffPlan(t)
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
		if first.Batch != 0 {
			t.Errorf("job %d: first update is batch %d of %d, want batch 0", n, first.Batch, first.Batches)
		}
	}
}

// TestFirstBatchHoldReleases: the first-batch hold covers computing only.
// A first execution that straggles or fails transiently leaves the job's
// other batches issuable without the manual clock moving; one still
// computing when its job is cancelled or its hedge window opens holds
// nothing from then on; and a job the cache served in part, whose first
// update came at registration, holds nothing at all.
func TestFirstBatchHoldReleases(t *testing.T) {
	d := readsData(t, 61, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	nb := probePlan(t, d, cfg).Batches()
	if nb < 3 {
		t.Fatalf("want several batches, got %d", nb)
	}
	want := runRef(t, d, cfg)

	// The fault on batch 0's first attempt, and none anywhere else: the
	// first seed whose plan draws exactly that.
	onlyFirst := func(kind driver.FaultKind, spec driver.FaultSpec) *driver.FaultPlan {
		t.Helper()
		for seed := int64(1); seed < 10000; seed++ {
			p := driver.NewFaultPlan(seed, spec)
			ok := p.Kind(0, 0) == kind && p.Kind(0, 1) == driver.FaultNone
			for bi := 1; ok && bi < nb; bi++ {
				ok = p.Kind(bi, 0) == driver.FaultNone
			}
			if ok {
				return p
			}
		}
		t.Fatalf("no seed faults batch 0 alone with %v", kind)
		return nil
	}
	// Every batch but 0 streams while batch 0's first execution waits on
	// the clock.
	othersStream := func(t *testing.T, updates <-chan Update) {
		t.Helper()
		for range nb - 1 {
			if u := nextUpdate(t, updates); u.Batch == 0 {
				t.Fatal("batch 0 streamed before the clock moved")
			}
		}
	}
	finish := func(t *testing.T, e *Engine, job *Job, updates <-chan Update) {
		t.Helper()
		if u := nextUpdate(t, updates); u.Batch != 0 {
			t.Fatalf("last update is batch %d, want 0", u.Batch)
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
		awaitTimers(t, clk, 1) // batch 0's straggle, armed after it computed
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
		awaitTimers(t, clk, 1) // batch 0's backoff
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
		if u := nextUpdate(t, updates); u.Batch == 0 {
			t.Fatal("batch 0 streamed while its execution was held")
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
// of the plan but batch 0 straggles for an hour on a manual clock that
// does not move, so both regular executors of WithExecutors(2) end up
// parked on job A's batches; job B's first execution is still issued, and
// streams, before any of them returns. Without the extra executor, or
// with one that takes any batch, B waits for the clock.
func TestFirstExecutionNotQueuedBehindExecutors(t *testing.T) {
	d := readsData(t, 61, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	nb := probePlan(t, d, cfg).Batches()
	if nb < 4 {
		t.Fatalf("want ≥ 4 batches, got %d", nb)
	}
	want := runRef(t, d, cfg)
	var plan *driver.FaultPlan
	for seed := int64(1); plan == nil && seed < 100000; seed++ {
		p := driver.NewFaultPlan(seed, driver.FaultSpec{StragglerRate: 0.9, StragglerDelay: time.Hour})
		ok := p.Kind(0, 0) == driver.FaultNone
		for bi := 1; ok && bi < nb; bi++ {
			ok = p.Kind(bi, 0) == driver.FaultStraggler
		}
		if ok {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no seed straggles every batch but batch 0")
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
	if u := nextUpdate(t, b.Results()); u.Batch != 0 {
		t.Fatalf("job B's first update is batch %d, want 0", u.Batch)
	}
	e.mu.Lock()
	for bi, out := range a.outs[1:] {
		if out != nil {
			t.Errorf("job A's batch %d was delivered before the clock moved", bi+1)
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
