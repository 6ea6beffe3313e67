package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/synth"
)

// tickClock is a Manual clock each reading of which is one step later
// than the last, so that no two of a job's stamps share an instant and no
// segment the job enters is zero by construction. Its timers are the
// Manual clock's: only the test's Advance fires them, and the readings'
// steps never do.
type tickClock struct {
	*clock.Manual
	step  time.Duration
	ticks atomic.Int64
}

func newTickClock() *tickClock { return &tickClock{Manual: new(clock.Manual), step: time.Microsecond} }

func (c *tickClock) Now() time.Time {
	return c.Manual.Now().Add(time.Duration(c.ticks.Add(1)) * c.step)
}

// segments sums p's segments.
func segments(p Phases) time.Duration {
	return p.Decode + p.AdmitWait + p.PlanDedup + p.PlanItems + p.PlanBatches +
		p.Execute + p.Complete + p.Stream
}

// checkTiled fails unless p's segments sum to its Wall exactly, and the
// segments named in entered are positive and the others zero.
func checkTiled(t *testing.T, p Phases, entered ...string) {
	t.Helper()
	if sum := segments(p); sum != p.Wall || p.Wall <= 0 {
		t.Fatalf("segments sum to %v, Wall %v: %+v", sum, p.Wall, p)
	}
	want := map[string]bool{}
	for _, name := range entered {
		want[name] = true
	}
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"admit", p.AdmitWait}, {"dedup", p.PlanDedup}, {"items", p.PlanItems},
		{"batches", p.PlanBatches}, {"execute", p.Execute}, {"complete", p.Complete},
	} {
		if (s.d > 0) != want[s.name] {
			t.Errorf("segment %s is %v; entered %v: %+v", s.name, s.d, want[s.name], p)
		}
	}
}

// TestPhasesTileWallOnManualClock: on a manual clock the job segments sum
// exactly to the job's wall time — for a job of several batches, one the
// result cache serves whole (execute 0), a cancelled one (nothing after
// execute) and one degraded at its deadline, where the step through the
// deadline's timer lands in execute.
func TestPhasesTileWallOnManualClock(t *testing.T) {
	d := readsData(t, 61, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	if nb := probePlan(t, d, cfg).Batches(); nb < 3 {
		t.Fatalf("want several batches, got %d", nb)
	}
	want := runRef(t, d, cfg)
	all := []string{"admit", "dedup", "items", "batches", "execute", "complete"}

	t.Run("batches", func(t *testing.T) {
		clk := newTickClock()
		e := New(WithDriverConfig(cfg), WithExecutors(2), withClock(clk))
		defer e.Close()
		job := submit(t, e, d)
		got := wait(t, job)
		reportsEqual(t, "phased job", got, want)
		p := job.Phases()
		checkTiled(t, p, all...)
		if p.FirstUpdate <= 0 || p.FirstUpdate >= p.Wall {
			t.Errorf("FirstUpdate %v outside (0, Wall %v)", p.FirstUpdate, p.Wall)
		}
		if p.Pin <= 0 || p.Exec <= 0 || p.Merge <= 0 || p.Publish <= 0 || p.Wait != 0 {
			t.Errorf("per-batch totals pin %v exec %v merge %v publish %v wait %v; want all but wait positive",
				p.Pin, p.Exec, p.Merge, p.Publish, p.Wait)
		}
	})

	t.Run("cache-served", func(t *testing.T) {
		clk := newTickClock()
		e := New(WithDriverConfig(cfg), WithExecutors(2), WithResultCache(0), withClock(clk))
		defer e.Close()
		for pass := range 2 {
			job := submit(t, e, d)
			rep := wait(t, job)
			if pass == 0 {
				continue
			}
			if rep.Batches != 0 {
				t.Fatalf("warm job ran %d batches", rep.Batches)
			}
			p := job.Phases()
			checkTiled(t, p, "admit", "dedup", "items", "batches", "complete")
			if p.FirstUpdate <= 0 || p.Exec != 0 || p.Merge != 0 {
				t.Errorf("cache-served job: FirstUpdate %v, Exec %v, Merge %v", p.FirstUpdate, p.Exec, p.Merge)
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		clk := newTickClock()
		plan := driver.NewFaultPlan(3, driver.FaultSpec{StragglerRate: 1, StragglerDelay: time.Hour})
		e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2), withClock(clk))
		defer e.Close()
		ctx, cancel := context.WithCancel(context.Background())
		job, err := e.Submit(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		job.Results() // the plan is built
		awaitTimers(t, clk.Manual, 2)
		cancel()
		if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("job err = %v, want context.Canceled", err)
		}
		p := job.Phases()
		checkTiled(t, p, "admit", "dedup", "items", "batches", "execute")
		if p.FirstUpdate != 0 || p.Merge != 0 {
			t.Errorf("cancelled before any landing: FirstUpdate %v, Merge %v", p.FirstUpdate, p.Merge)
		}
	})

	t.Run("deadline-partial", func(t *testing.T) {
		clk := newTickClock()
		plan := driver.NewFaultPlan(8, driver.FaultSpec{StragglerRate: 1, StragglerDelay: time.Hour})
		const deadline = 300 * time.Millisecond
		e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(2),
			WithJobDeadline(deadline), WithDegradedMode(DegradePartial), withClock(clk))
		defer e.Close()
		job := submit(t, e, d)
		awaitTimers(t, clk.Manual, 4) // the job's two alarms and both executors' straggles
		clk.Advance(deadline)
		rep := wait(t, job)
		if rep.PartialFailures != len(d.Comparisons) {
			t.Fatalf("PartialFailures = %d, want %d", rep.PartialFailures, len(d.Comparisons))
		}
		p := job.Phases()
		checkTiled(t, p, all...)
		if p.Execute < deadline*9/10 {
			t.Errorf("Execute %v: the step through the deadline fell elsewhere (%+v)", p.Execute, p)
		}
	})
}

// TestPhasesSumOnRealClock: on the wall clock a job's segments still sum
// exactly to its Wall, and that Wall is within 5 % of the time the caller
// measures around Submit and Wait.
func TestPhasesSumOnRealClock(t *testing.T) {
	// Long enough (about 0.1 s on two cores) that waking the caller is
	// noise beside it.
	d := synth.Reads(synth.ReadsSpec{
		Name: "wall", GenomeLen: 200_000, Coverage: 10, MeanReadLen: 1800, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 62, MaxComparisons: 4000,
	})
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 64
	e := New(WithDriverConfig(cfg), WithExecutors(2))
	defer e.Close()
	start := time.Now()
	job := submit(t, e, d)
	wait(t, job)
	wall := time.Since(start)
	p := job.Phases()
	if sum := segments(p); sum != p.Wall {
		t.Fatalf("segments sum to %v, Wall %v", sum, p.Wall)
	}
	if diff := wall - p.Wall; diff < 0 || diff > wall/20 {
		t.Fatalf("phases' Wall %v, caller measured %v: off by more than 5%%", p.Wall, wall)
	}
	t.Logf("wall %v: %+v", wall, p)
}
