package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/workload"
)

// probePlan builds the batch schedule a configuration produces, so
// chaos tests can replay a fault plan's deterministic decisions over
// the exact batches an engine run will see.
func probePlan(t *testing.T, d *workload.Dataset, cfg driver.Config) *driver.BatchPlan {
	t.Helper()
	bp, err := driver.BuildBatches(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// predictFaults replays a fault plan over nb batches the way a retried
// engine run executes them — attempt 0, then one retry per transient
// failure until the batch draws something else — and returns the exact
// injection counts the run must produce: permanent batches fail once
// and are quarantined (never retried: the fault is not transient),
// other batches fail transiently a deterministic number of times, and a
// terminal straggler delays the attempt that finally succeeds.
func predictFaults(p *driver.FaultPlan, nb int) (transients, permanents, stragglers int) {
	for bi := 0; bi < nb; bi++ {
		if p.Kind(bi, 0) == driver.FaultPermanent {
			permanents++
			continue
		}
		a := 0
		for p.Kind(bi, a) == driver.FaultTransient {
			transients++
			a++
		}
		if p.Kind(bi, a) == driver.FaultStraggler {
			stragglers++
		}
	}
	return
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// baseline taken before the engine under test existed.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMatrix: under a seeded fault plan injecting transient
// failures and straggler delays, a retrying engine completes every job
// with a report bit-identical to the fault-free golden — across plain,
// dedup, traceback and cache+traceback configurations — and the
// retry/fault counters match the plan's deterministic schedule exactly.
func TestChaosMatrix(t *testing.T) {
	d := readsData(t, 31, 30)
	cases := []struct {
		name             string
		dedup, traceback bool
		cache            bool
	}{
		{"plain", false, false, false},
		{"dedup", true, false, false},
		{"traceback", false, true, false},
		{"cache+traceback", true, true, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := testCfg(2)
			cfg.MaxBatchJobs = 4
			cfg.DedupExtensions = tc.dedup
			cfg.Traceback = tc.traceback
			want := runRef(t, d, cfg)
			plan := driver.NewFaultPlan(int64(1000+i), driver.FaultSpec{
				TransientRate:  0.25,
				StragglerRate:  0.10,
				StragglerDelay: time.Millisecond,
			})
			opts := []Option{
				WithDriverConfig(withFaults(cfg, plan)), WithExecutors(4),
				WithRetry(12, 0),
				WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
			}
			if tc.cache {
				opts = append(opts, WithResultCache(1<<14))
			}
			e := New(opts...)
			jobs := 1
			if tc.cache {
				jobs = 2 // the second submission re-runs warm through the cache
			}
			for k := 0; k < jobs; k++ {
				job := submit(t, e, d)
				got := wait(t, job)
				if tc.cache {
					// A cache changes the report's hit/miss bookkeeping
					// (and a warm job's batch count) by design; the
					// per-comparison results must still survive faults
					// bit for bit.
					if len(got.Results) != len(want.Results) {
						t.Fatalf("job %d: %d results, want %d", k, len(got.Results), len(want.Results))
					}
					for i := range want.Results {
						if got.Results[i] != want.Results[i] {
							t.Fatalf("job %d result %d differs from fault-free golden", k, i)
						}
					}
					if got.PartialFailures != 0 {
						t.Fatalf("job %d: PartialFailures = %d", k, got.PartialFailures)
					}
				} else {
					reportsEqual(t, tc.name, got, want)
				}
			}
			st := e.Stats()
			tr, pm, strag := plan.Injected()
			if pm != 0 {
				t.Fatalf("permanent faults injected at rate 0: %d", pm)
			}
			if st.Retries != tr {
				t.Fatalf("Stats.Retries = %d, want one per injected transient (%d)", st.Retries, tr)
			}
			if st.FaultsInjected != tr+strag {
				t.Fatalf("Stats.FaultsInjected = %d, want %d", st.FaultsInjected, tr+strag)
			}
			if st.Quarantined != 0 || st.DeadlineExceeded != 0 || st.Hedges != 0 {
				t.Fatalf("unexpected degradation: %+v", st)
			}
			if !tc.cache {
				// Single job, deterministic schedule: the injected counts
				// are predictable from the plan alone.
				nb := probePlan(t, d, cfg).Batches()
				wantTr, _, wantStrag := predictFaults(plan, nb)
				if int(tr) != wantTr || int(strag) != wantStrag {
					t.Fatalf("Injected() = (%d, _, %d), predicted (%d, _, %d)",
						tr, strag, wantTr, wantStrag)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}

// TestChaosPermanentFallback: batches drawing permanent faults are
// quarantined to the reference host path and the job's report is still
// bit-identical to the fault-free golden; quarantine and retry counters
// match the plan's schedule exactly.
func TestChaosPermanentFallback(t *testing.T) {
	d := readsData(t, 32, 30)
	cfg := testCfg(2)
	cfg.MaxBatchJobs = 3
	want := runRef(t, d, cfg)
	nb := probePlan(t, d, cfg).Batches()
	plan := driver.NewFaultPlan(6, driver.FaultSpec{PermanentRate: 0.4, TransientRate: 0.2})
	wantTr, wantPm, _ := predictFaults(plan, nb)
	if wantPm == 0 || wantPm == nb {
		t.Fatalf("seed draws %d/%d permanent batches; need a mix", wantPm, nb)
	}
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(4),
		WithRetry(12, 0), WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
		WithDegradedMode(DegradeFallback))
	defer e.Close()
	job := submit(t, e, d)
	got := wait(t, job)
	reportsEqual(t, "permanent fallback", got, want)
	if got.PartialFailures != 0 {
		t.Fatalf("PartialFailures = %d under fallback, want 0", got.PartialFailures)
	}
	st := e.Stats()
	tr, pm, _ := plan.Injected()
	if int(pm) != wantPm || int(tr) != wantTr {
		t.Fatalf("Injected() = (%d, %d, _), predicted (%d, %d, _)", tr, pm, wantTr, wantPm)
	}
	if st.Quarantined != int64(wantPm) {
		t.Fatalf("Stats.Quarantined = %d, want %d", st.Quarantined, wantPm)
	}
	if st.Retries != int64(wantTr) {
		t.Fatalf("Stats.Retries = %d, want %d", st.Retries, wantTr)
	}
}

// TestChaosPermanentPartial: under DegradePartial, permanently-failing
// batches complete as Failed placeholders — the job finishes, the
// failures are counted, and every other comparison is bit-identical to
// the fault-free golden.
func TestChaosPermanentPartial(t *testing.T) {
	d := readsData(t, 32, 30)
	cfg := testCfg(2)
	cfg.MaxBatchJobs = 3
	want := runRef(t, d, cfg)
	probe := probePlan(t, d, cfg)
	nb := probe.Batches()
	plan := driver.NewFaultPlan(6, driver.FaultSpec{PermanentRate: 0.4, TransientRate: 0.2})
	wantFailed := 0
	for bi := 0; bi < nb; bi++ {
		if plan.Kind(bi, 0) == driver.FaultPermanent {
			wantFailed += len(probe.FailedBatchResult(bi).Out)
		}
	}
	if wantFailed == 0 {
		t.Fatal("seed draws no permanent batches")
	}
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(4),
		WithRetry(12, 0), WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
		WithDegradedMode(DegradePartial))
	defer e.Close()
	job := submit(t, e, d)
	// Stream and report must agree on which comparisons failed.
	streamFailed := 0
	streamed := 0
	for upd := range job.Results() {
		for _, r := range upd.Results {
			streamed++
			if r.Failed {
				streamFailed++
			}
		}
	}
	got := wait(t, job)
	if got.PartialFailures != wantFailed {
		t.Fatalf("PartialFailures = %d, want %d", got.PartialFailures, wantFailed)
	}
	if streamed != len(d.Comparisons) || streamFailed != wantFailed {
		t.Fatalf("stream carried %d results (%d failed), want %d (%d failed)",
			streamed, streamFailed, len(d.Comparisons), wantFailed)
	}
	failed := 0
	for i, r := range got.Results {
		if r.Failed {
			failed++
			continue
		}
		if !reflect.DeepEqual(r, want.Results[i]) {
			t.Fatalf("surviving comparison %d differs from fault-free golden", i)
		}
	}
	if failed != wantFailed {
		t.Fatalf("%d Failed results, want %d", failed, wantFailed)
	}
	if st := e.Stats(); st.Quarantined == 0 {
		t.Fatalf("Stats.Quarantined = 0, want > 0")
	}
}

// TestRetryBudgetExhaustedFailsJob: with DegradeFail (the default), a
// job whose per-job retry budget runs dry fails with the transient
// fault that broke it, and Stats.Retries equals the budget exactly.
func TestRetryBudgetExhaustedFailsJob(t *testing.T) {
	d := readsData(t, 33, 20)
	plan := driver.NewFaultPlan(9, driver.FaultSpec{TransientRate: 1})
	e := New(WithDriverConfig(withFaults(testCfg(1), plan)), WithExecutors(2),
		WithRetry(10, 2), WithRetryBackoff(100*time.Microsecond, time.Millisecond))
	defer e.Close()
	job := submit(t, e, d)
	_, err := job.Wait(context.Background())
	var fe *driver.FaultError
	if !errors.As(err, &fe) || !fe.Transient() {
		t.Fatalf("job err = %v, want transient *FaultError", err)
	}
	if st := e.Stats(); st.Retries != 2 {
		t.Fatalf("Stats.Retries = %d, want the whole budget (2)", st.Retries)
	}
}

// TestCancelDropsQueuedWorkAndLateResults (S1): cancelling a job with
// batches in flight and batches queued must drop the queued work
// promptly — no further executions are issued — and the in-flight
// executions' late deliveries must neither reach the closed stream nor
// count in engine stats.
func TestCancelDropsQueuedWorkAndLateResults(t *testing.T) {
	base := runtime.NumGoroutine()
	d := readsData(t, 34, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 3
	nb := probePlan(t, d, cfg).Batches()
	const execs = 2
	if nb <= execs {
		t.Fatalf("want more batches than executors, got %d", nb)
	}
	plan := driver.NewFaultPlan(3, driver.FaultSpec{
		StragglerRate: 1, StragglerDelay: 400 * time.Millisecond,
	})
	clk := new(clock.Manual)
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(execs), withClock(clk))
	ctx, cancel := context.WithCancel(context.Background())
	job, err := e.Submit(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	updates := job.Results() // blocks until the plan is built, then cancel mid-flight
	cancel()
	if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	got := 0
	for range updates { // closed by settlement; late deliveries must not land here
		got++
	}
	if got != 0 {
		t.Fatalf("%d updates leaked into a cancelled job's stream", got)
	}
	// The executions in flight at cancel end their straggler waits with
	// the job's context, so Close returns without the clock moving.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BatchesDone != 0 || st.CellsDone != 0 || st.JobsDone != 0 {
		t.Fatalf("late deliveries corrupted stats: %+v", st)
	}
	if st.JobsLive != 0 {
		t.Fatalf("JobsLive = %d after settlement", st.JobsLive)
	}
	// Prompt drop: only the executions already in flight at cancel ever
	// started — the injection counter is per execution, so it bounds
	// issues exactly.
	if total := plan.InjectedTotal(); total > execs {
		t.Fatalf("%d executions started, want <= %d: queued batches not dropped", total, execs)
	}
	assertNoGoroutineLeak(t, base)
}

// TestEngineCloseWithPendingRetriesNoLeak (S2): Close while backoff
// timers are pending and every attempt keeps failing must neither
// deadlock nor leak goroutines once the job is cancelled.
func TestEngineCloseWithPendingRetriesNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	d := readsData(t, 35, 16)
	plan := driver.NewFaultPlan(9, driver.FaultSpec{TransientRate: 1})
	e := New(WithDriverConfig(withFaults(testCfg(1), plan)), WithExecutors(2),
		WithRetry(1<<20, 0), WithRetryBackoff(20*time.Millisecond, 40*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	job, err := e.Submit(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	// Let attempts fail and backoff timers arm, then cancel under them.
	time.Sleep(60 * time.Millisecond)
	cancel()
	if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, base)
}

// TestDeadlineHedgeAndFallback: a single straggling batch pushes a job
// into its hedge window (the duplicate is issued exactly once), then
// past its deadline, where DegradeFallback quarantines it to the host
// path — and the report is still bit-identical to the fault-free
// golden, with the losing executions dropped first-result-wins.
func TestDeadlineHedgeAndFallback(t *testing.T) {
	base := runtime.NumGoroutine()
	d := readsData(t, 36, 6)
	cfg := testCfg(1)
	if nb := probePlan(t, d, cfg).Batches(); nb != 1 {
		t.Fatalf("want a single batch, got %d", nb)
	}
	want := runRef(t, d, cfg)
	plan := driver.NewFaultPlan(4, driver.FaultSpec{
		StragglerRate: 1, StragglerDelay: 1500 * time.Millisecond,
	})
	clk := new(clock.Manual)
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(3),
		WithJobDeadline(500*time.Millisecond),
		WithDegradedMode(DegradeFallback), withClock(clk))
	job := submit(t, e, d)
	awaitTimers(t, clk, 3) // the job's two alarms and the first execution's straggle
	// The hedge window opens: an idle executor duplicates the batch, and
	// the duplicate straggles too.
	clk.Advance(400 * time.Millisecond)
	awaitTimers(t, clk, 3)
	// The deadline quarantines the batch; the third executor runs it on
	// the host path.
	clk.Advance(100 * time.Millisecond)
	got := wait(t, job)
	reportsEqual(t, "deadline fallback", got, want)
	st := e.Stats()
	if st.Hedges != 1 {
		t.Fatalf("Stats.Hedges = %d, want exactly 1", st.Hedges)
	}
	if st.DeadlineExceeded != 1 || st.Quarantined != 1 {
		t.Fatalf("DeadlineExceeded = %d, Quarantined = %d, want 1, 1",
			st.DeadlineExceeded, st.Quarantined)
	}
	if st.BatchesDone != 1 {
		t.Fatalf("BatchesDone = %d: a losing hedge copy double-counted", st.BatchesDone)
	}
	if err := e.Close(); err != nil { // the straggling copies end with the job, and drop
		t.Fatal(err)
	}
	assertNoGoroutineLeak(t, base)
}

// TestDeadlinePartialCompletes: a job that cannot finish in time under
// DegradePartial settles at the deadline with every undelivered batch
// as Failed placeholders, streamed and counted.
func TestDeadlinePartialCompletes(t *testing.T) {
	d := readsData(t, 37, 18)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	plan := driver.NewFaultPlan(8, driver.FaultSpec{
		StragglerRate: 1, StragglerDelay: 2 * time.Second,
	})
	clk := new(clock.Manual)
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2),
		WithJobDeadline(300*time.Millisecond),
		WithDegradedMode(DegradePartial), withClock(clk))
	job := submit(t, e, d)
	updates := job.Results()
	awaitTimers(t, clk, 4) // the job's two alarms and both executors' straggles
	clk.Advance(300 * time.Millisecond)
	got := wait(t, job)
	if got.PartialFailures != len(d.Comparisons) {
		t.Fatalf("PartialFailures = %d, want every comparison (%d)",
			got.PartialFailures, len(d.Comparisons))
	}
	streamed, streamFailed := 0, 0
	for upd := range updates {
		for _, r := range upd.Results {
			streamed++
			if r.Failed {
				streamFailed++
			}
		}
	}
	if streamed != len(d.Comparisons) || streamFailed != streamed {
		t.Fatalf("stream carried %d results, %d failed; want %d, all failed",
			streamed, streamFailed, len(d.Comparisons))
	}
	st := e.Stats()
	if st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
	if st.Quarantined == 0 {
		t.Fatal("Quarantined = 0, want every undelivered batch")
	}
	if err := e.Close(); err != nil { // the straggling executions end with the job, and drop
		t.Fatal(err)
	}
}

// TestSettledJobsFreeStragglers: an execution straggling on the fault
// plan's delay ends its wait when its job settles — cancelled, or at its
// deadline under each DegradedMode — so Close returns while the manual
// clock stands short of every straggler's hour.
func TestSettledJobsFreeStragglers(t *testing.T) {
	many := readsData(t, 39, 18)
	one := readsData(t, 36, 6)
	const deadline = 300 * time.Millisecond
	for _, row := range []struct {
		name  string
		d     *workload.Dataset
		execs int
		opts  []Option
		// settle makes the job settle once its executions straggle.
		settle  func(cancel context.CancelFunc, clk *clock.Manual)
		wantErr error
	}{
		{"cancel", many, 2, nil,
			func(cancel context.CancelFunc, _ *clock.Manual) { cancel() }, context.Canceled},
		{"deadline-fail", many, 2, []Option{WithJobDeadline(deadline)},
			func(_ context.CancelFunc, clk *clock.Manual) { clk.Advance(deadline) }, ErrDeadline},
		// One batch and a third executor, free for the host path.
		{"deadline-fallback", one, 3, []Option{WithJobDeadline(deadline), WithDegradedMode(DegradeFallback)},
			func(_ context.CancelFunc, clk *clock.Manual) { clk.Advance(deadline) }, nil},
		{"deadline-partial", many, 2, []Option{WithJobDeadline(deadline), WithDegradedMode(DegradePartial)},
			func(_ context.CancelFunc, clk *clock.Manual) { clk.Advance(deadline) }, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := testCfg(1)
			cfg.MaxBatchJobs = 4
			plan := driver.NewFaultPlan(5, driver.FaultSpec{StragglerRate: 1, StragglerDelay: time.Hour})
			clk := new(clock.Manual)
			e := New(append(row.opts, WithDriverConfig(withFaults(cfg, plan)), WithExecutors(row.execs), withClock(clk))...)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job, err := e.Submit(ctx, row.d)
			if err != nil {
				t.Fatal(err)
			}
			timers := 1 // one execution straggles per batch or executor
			if nb := probePlan(t, row.d, cfg).Batches(); nb > 1 {
				timers = 2
			}
			if len(row.opts) > 0 {
				timers += 2 // the job's hedge and deadline alarms
			}
			awaitTimers(t, clk, timers)
			row.settle(cancel, clk)
			if _, err := job.Wait(context.Background()); !errors.Is(err, row.wantErr) {
				t.Fatalf("job err = %v, want %v", err, row.wantErr)
			}
			before := clk.Now()
			closed := make(chan struct{})
			go func() { e.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close still waits on a straggler of a settled job")
			}
			if now := clk.Now(); !now.Equal(before) {
				t.Fatalf("the clock moved from %v to %v", before, now)
			}
		})
	}
}

// TestFaultInjectionOffIsByteIdentical: an engine with no fault plan
// and retries off behaves exactly as before the fault-tolerance layer —
// same report, all fault counters zero.
func TestFaultInjectionOffIsByteIdentical(t *testing.T) {
	d := readsData(t, 38, 20)
	cfg := testCfg(2)
	want := runRef(t, d, cfg)
	e := New(WithDriverConfig(cfg), WithExecutors(4))
	defer e.Close()
	job := submit(t, e, d)
	got := wait(t, job)
	reportsEqual(t, "no faults", got, want)
	st := e.Stats()
	if st.Retries != 0 || st.Hedges != 0 || st.Quarantined != 0 ||
		st.FaultsInjected != 0 || st.DeadlineExceeded != 0 {
		t.Fatalf("fault counters nonzero without a plan: %+v", st)
	}
}

// withFaults returns cfg with fault plan p installed.
func withFaults(cfg driver.Config, p *driver.FaultPlan) driver.Config {
	cfg.Faults = p
	return cfg
}

// withClock runs the engine's deadlines, hedging, backoff and straggler
// waits on c.
func withClock(c clock.Clock) Option { return func(e *Engine) { e.clk = c } }

// awaitTimers returns once clk holds n pending timers: the engine has
// armed what the test's next step is meant to fire.
func awaitTimers(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	for start := time.Now(); clk.Advance(0) < n; time.Sleep(50 * time.Microsecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d timers pending, want %d", clk.Advance(0), n)
		}
	}
}
