package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestFirstBatchComputesAlone: until a job has streamed its first update,
// its first execution computes alone, on the whole host, so the first
// update is batch 0's. On the ≈ 60-batch schedule of
// TestFirstUpdateNotStarvedByExecutors with two executors, every job's
// first update is batch 0 and, when batch 0 has computed, it is the only
// execution of its job ever issued. Without the hold the two executors
// split the host between batches 0 and 1 and batch 1 often lands first.
func TestFirstBatchComputesAlone(t *testing.T) {
	const executors, jobs = 2, 6
	d := synth.Reads(synth.ReadsSpec{
		Name: "handoff", GenomeLen: 36000, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 225, Seed: 23, MaxComparisons: 3800,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	e := New(WithDriverConfig(cfg), WithExecutors(executors))
	defer e.Close()
	var mu sync.Mutex
	issuedAtCompute := map[*Job]int{} // the job's executions issued when batch 0 first computed
	e.computeHook = func(j *Job, bi int) {
		if bi != 0 {
			return
		}
		e.mu.Lock()
		n := j.issued
		e.mu.Unlock()
		mu.Lock()
		if _, ok := issuedAtCompute[j]; !ok {
			issuedAtCompute[j] = n
		}
		mu.Unlock()
	}

	for n := range jobs {
		job, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		updates := job.Results()
		first, ok := <-updates
		for range updates {
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !ok || first.Batches < 32 {
			t.Fatalf("job %d: first update %+v; the test needs a schedule of ≥ 32 batches", n, first)
		}
		if first.Batch != 0 {
			t.Errorf("job %d: first update is batch %d of %d, want batch 0", n, first.Batch, first.Batches)
		}
		mu.Lock()
		issued, ok := issuedAtCompute[job]
		mu.Unlock()
		if !ok || issued != 1 {
			t.Errorf("job %d: %d executions issued when batch 0 had computed (seen %v), want 1", n, issued, ok)
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
	want, err := driver.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

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
		got, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "held job", got, want)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("straggler", func(t *testing.T) {
		plan := onlyFirst(driver.FaultStraggler, driver.FaultSpec{StragglerRate: 0.2, StragglerDelay: time.Hour})
		clk := new(clock.Manual)
		e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2), withClock(clk))
		job, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
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
		job, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		updates := job.Results()
		othersStream(t, updates)
		awaitTimers(t, clk, 1) // batch 0's backoff
		clk.Advance(2 * time.Second)
		finish(t, e, job, updates)
		if st := e.Stats(); st.Retries != 1 {
			t.Fatalf("Retries = %d, want 1", st.Retries)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		e := New(WithDriverConfig(cfg), WithExecutors(2))
		held, release := holdFirstCompute(e, nil)
		ctx, cancel := context.WithCancel(context.Background())
		job, err := e.Submit(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		<-held
		cancel()
		if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("job err = %v, want context.Canceled", err)
		}
		// The cancelled job's first execution still computes; the other
		// executor serves the next job whole.
		next, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := next.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "job after a cancelled hold", got, want)
		close(release)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("hedge-window", func(t *testing.T) {
		clk := new(clock.Manual)
		e := New(WithDriverConfig(cfg), WithExecutors(2), withClock(clk), WithJobDeadline(time.Second))
		held, release := holdFirstCompute(e, nil)
		job, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		updates := job.Results()
		<-held
		awaitTimers(t, clk, 2) // the job's hedge and deadline alarms
		e.mu.Lock()
		issued := job.issued
		e.mu.Unlock()
		if issued != 1 {
			t.Fatalf("%d executions issued while the first computes, want 1", issued)
		}
		clk.Advance(800 * time.Millisecond) // the hedge window opens
		if u := nextUpdate(t, updates); u.Batch == 0 {
			t.Fatal("batch 0 streamed while its execution was held")
		}
		close(release)
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cache-served-in-part", func(t *testing.T) {
		pairs := synth.UniformPairs(synth.UniformPairsSpec{
			Count: 700, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 37})
		ccfg := cacheTestConfig()
		ccfg.MaxBatchJobs = 16
		e := New(WithDriverConfig(ccfg), WithExecutors(2), WithResultCache(1<<12))
		warm, err := e.Submit(context.Background(), pairs.WithComparisons(pairs.Comparisons[:600]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		// From here on the first execution computed is the mixed job's;
		// a second one of the same job must compute while it is held.
		second := make(chan int, 1)
		held, release := holdFirstCompute(e, func(j *Job, bi int) {
			select {
			case second <- bi:
			default:
			}
		})
		job, err := e.Submit(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		<-held
		select {
		case <-second:
		case <-time.After(10 * time.Second):
			t.Fatal("no other batch computed: a job the cache served in part is held")
		}
		close(release)
		rep, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits != 600 || rep.Batches < 2 {
			t.Fatalf("mixed job: %d hits over %d batches, want 600 over ≥ 2", rep.CacheHits, rep.Batches)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// holdFirstCompute makes the first execution e computes from now on wait,
// as if still computing, until release is closed; held receives its job
// once it waits. Every later execution runs then (nil or not).
func holdFirstCompute(e *Engine, then func(j *Job, bi int)) (held chan *Job, release chan struct{}) {
	held, release = make(chan *Job, 1), make(chan struct{})
	var first atomic.Bool
	e.mu.Lock()
	e.computeHook = func(j *Job, bi int) {
		if first.CompareAndSwap(false, true) {
			held <- j
			<-release
			return
		}
		if then != nil {
			then(j, bi)
		}
	}
	e.mu.Unlock()
	return held, release
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
