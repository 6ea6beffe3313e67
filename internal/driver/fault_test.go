package driver

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// TestFaultPlanDeterministic: a plan's decisions are a pure function of
// (seed, batch, attempt) — two plans with the same seed and spec agree
// on every draw, and Kind itself never counts anything.
func TestFaultPlanDeterministic(t *testing.T) {
	spec := FaultSpec{TransientRate: 0.2, PermanentRate: 0.05, StragglerRate: 0.1}
	a := NewFaultPlan(42, spec)
	b := NewFaultPlan(42, spec)
	for batch := 0; batch < 200; batch++ {
		for attempt := 0; attempt < 5; attempt++ {
			if a.Kind(batch, attempt) != b.Kind(batch, attempt) {
				t.Fatalf("plans with the same seed diverge at (%d, %d)", batch, attempt)
			}
		}
	}
	if got := a.InjectedTotal(); got != 0 {
		t.Fatalf("Kind counted injections: InjectedTotal = %d, want 0", got)
	}
	// Different seeds must disagree somewhere.
	c := NewFaultPlan(43, spec)
	same := true
	for batch := 0; batch < 200 && same; batch++ {
		for attempt := 0; attempt < 5; attempt++ {
			if a.Kind(batch, attempt) != c.Kind(batch, attempt) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("plans with different seeds produced identical schedules")
	}
}

// TestFaultPlanPermanentStable: a batch that draws a permanent fault
// draws it on every attempt — retrying a dead batch keeps failing.
func TestFaultPlanPermanentStable(t *testing.T) {
	p := NewFaultPlan(7, FaultSpec{PermanentRate: 0.3, TransientRate: 0.3})
	perms := 0
	for batch := 0; batch < 500; batch++ {
		if p.Kind(batch, 0) != FaultPermanent {
			continue
		}
		perms++
		for attempt := 1; attempt < 8; attempt++ {
			if k := p.Kind(batch, attempt); k != FaultPermanent {
				t.Fatalf("batch %d permanent at attempt 0 but %s at attempt %d", batch, k, attempt)
			}
		}
	}
	if perms == 0 {
		t.Fatal("no permanent faults drawn at rate 0.3 over 500 batches")
	}
}

// TestFaultPlanRates: empirical injection frequencies track the spec.
func TestFaultPlanRates(t *testing.T) {
	spec := FaultSpec{TransientRate: 0.2, StragglerRate: 0.1}
	p := NewFaultPlan(99, spec)
	const n = 20000
	var tr, st int
	for i := 0; i < n; i++ {
		switch p.Kind(i, 0) {
		case FaultTransient:
			tr++
		case FaultStraggler:
			st++
		case FaultPermanent:
			t.Fatalf("permanent fault at rate 0")
		}
	}
	if f := float64(tr) / n; math.Abs(f-spec.TransientRate) > 0.02 {
		t.Fatalf("transient frequency %.3f, want ~%.2f", f, spec.TransientRate)
	}
	if f := float64(st) / n; math.Abs(f-spec.StragglerRate) > 0.02 {
		t.Fatalf("straggler frequency %.3f, want ~%.2f", f, spec.StragglerRate)
	}
}

// TestExecBatchAttemptInjects: an installed plan fails executions at the
// ExecBatch boundary with a classifiable FaultError, counts what it
// injected, and a clean attempt of the same batch returns results
// bit-identical to a fault-free plan's.
func TestExecBatchAttemptInjects(t *testing.T) {
	d := readsData(t, 21, 16)
	cfg := testCfg(1, true)
	cfg.MaxBatchJobs = 4

	clean, err := BuildBatches(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Transient on attempt 0 everywhere, never after: rate 1 would fail
	// every attempt, so pick the schedule by hand via a full-rate plan
	// and assert attempt-dependence with Kind instead.
	plan := NewFaultPlan(5, FaultSpec{TransientRate: 1})
	cfg.Faults = plan
	faulty, err := BuildBatches(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := faulty.NewDevice()
	kcfg := faulty.KernelConfig(1)
	for i := 0; i < faulty.Batches(); i++ {
		_, _, err := faulty.ExecBatchAttempt(context.Background(), dev, i, 0, kcfg, clock.Real, nil)
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("batch %d: err = %v, want *FaultError", i, err)
		}
		if !fe.Transient() || fe.Kind != FaultTransient || fe.Batch != i || fe.Attempt != 0 {
			t.Fatalf("batch %d: unexpected fault %+v", i, fe)
		}
	}
	tr, pm, st := plan.Injected()
	if int(tr) != faulty.Batches() || pm != 0 || st != 0 {
		t.Fatalf("Injected() = (%d, %d, %d), want (%d, 0, 0)", tr, pm, st, faulty.Batches())
	}

	// The host path ignores the plan entirely and matches the fault-free
	// fleet execution bit for bit.
	cdev := clean.NewDevice()
	for i := 0; i < clean.Batches(); i++ {
		want, err := clean.ExecBatch(cdev, i, kcfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulty.ExecBatchHost(i, kcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: host-path result differs from fault-free execution", i)
		}
	}
	if plan.InjectedTotal() != tr {
		t.Fatal("ExecBatchHost consulted the fault plan")
	}
}

// TestFailedBatchResult: placeholders carry one Failed entry per batch
// job with the job's GlobalID and nothing else.
func TestFailedBatchResult(t *testing.T) {
	d := readsData(t, 22, 12)
	cfg := testCfg(1, true)
	cfg.MaxBatchJobs = 3
	bp, err := BuildBatches(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := bp.NewDevice()
	kcfg := bp.KernelConfig(1)
	for i := 0; i < bp.Batches(); i++ {
		real, err := bp.ExecBatch(dev, i, kcfg)
		if err != nil {
			t.Fatal(err)
		}
		failed := bp.FailedBatchResult(i)
		if len(failed.Out) != len(real.Out) {
			t.Fatalf("batch %d: %d placeholders, want %d", i, len(failed.Out), len(real.Out))
		}
		for k, out := range failed.Out {
			if !out.Failed {
				t.Fatalf("batch %d entry %d: Failed not set", i, k)
			}
			if out.GlobalID != real.Out[k].GlobalID {
				t.Fatalf("batch %d entry %d: GlobalID %d, want %d", i, k, out.GlobalID, real.Out[k].GlobalID)
			}
			if out.Score != 0 || out.Cells != 0 || out.Cigar != "" {
				t.Fatalf("batch %d entry %d: placeholder carries data: %+v", i, k, out)
			}
		}
	}
}

// TestAssemblePlanPartialFailures: a Failed placeholder batch flows
// through assembly into per-comparison Failed results and
// Report.PartialFailures, also under dedup fan-out, and Failed results
// never enter the result cache.
func TestAssemblePlanPartialFailures(t *testing.T) {
	d := readsData(t, 23, 24)
	for _, dedup := range []bool{false, true} {
		cfg := testCfg(1, true)
		cfg.MaxBatchJobs = 4
		cfg.DedupExtensions = dedup
		cache := newCountingCache()
		if dedup {
			cfg.Cache = cache
		}
		bp, err := BuildBatches(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Batches() < 2 {
			t.Fatalf("want several batches, got %d", bp.Batches())
		}
		dev := bp.NewDevice()
		kcfg := bp.KernelConfig(1)
		outs := make([]*ipukernel.BatchResult, bp.Batches())
		for i := range outs {
			if outs[i], err = bp.ExecBatch(dev, i, kcfg); err != nil {
				t.Fatal(err)
			}
		}
		wantFailed := len(bp.FailedBatchResult(0).Out)
		outs[0] = bp.FailedBatchResult(0)
		plan, err := AssemblePlan(bp, outs)
		if err != nil {
			t.Fatal(err)
		}
		rep := plan.Schedule(cfg.IPUs)
		if rep.PartialFailures == 0 {
			t.Fatalf("dedup=%v: PartialFailures = 0, want > 0", dedup)
		}
		if !dedup && rep.PartialFailures != wantFailed {
			t.Fatalf("PartialFailures = %d, want %d", rep.PartialFailures, wantFailed)
		}
		failed := 0
		for _, r := range rep.Results {
			if r.Failed {
				failed++
				if r.Score != 0 || r.Cigar != "" {
					t.Fatalf("failed result carries data: %+v", r)
				}
			}
		}
		if failed != rep.PartialFailures {
			t.Fatalf("dedup=%v: %d Failed results, PartialFailures = %d", dedup, failed, rep.PartialFailures)
		}
		if dedup && rep.PartialFailures < wantFailed {
			t.Fatalf("dedup fan-out lost failures: %d < %d", rep.PartialFailures, wantFailed)
		}
		for _, e := range cache.put {
			if e.Failed {
				t.Fatal("Failed placeholder entered the result cache")
			}
		}
	}
}

// countingCache records every Put so tests can assert what the
// assembly stage caches.
type countingCache struct {
	put []ipukernel.AlignOut
}

func newCountingCache() *countingCache { return &countingCache{} }

func (c *countingCache) Get(CacheKey) (ipukernel.AlignOut, bool) {
	return ipukernel.AlignOut{}, false
}
func (c *countingCache) Put(_ CacheKey, out ipukernel.AlignOut) { c.put = append(c.put, out) }
