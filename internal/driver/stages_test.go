package driver

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// TestStagedExecutionMatchesNewPlan: running the stages by hand —
// BuildBatches, ExecBatch per batch in an arbitrary order, AssemblePlan —
// must reproduce NewPlan exactly. This is the contract the engine's
// interleaved scheduling rests on.
func TestStagedExecutionMatchesNewPlan(t *testing.T) {
	d := readsData(t, 11, 30)
	cfg := testCfg(2, true)
	cfg.MaxBatchJobs = 4 // force several batches

	want, err := NewPlan(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	bp := mustPlan(t, d, cfg)
	if bp.Batches() < 2 {
		t.Fatalf("want several batches, got %d", bp.Batches())
	}
	// Execute in reverse order on a single device to prove order and
	// executor layout are irrelevant.
	dev := bp.NewDevice()
	kcfg := bp.KernelConfig(1)
	outs := make([]*ipukernel.BatchResult, bp.Batches())
	for i := bp.Batches() - 1; i >= 0; i-- {
		outs[i], err = bp.ExecBatch(dev, i, kcfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := AssemblePlan(bp, outs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ipus := range []int{1, 3, 8} {
		if !reflect.DeepEqual(got.Schedule(ipus), want.Schedule(ipus)) {
			t.Fatalf("staged plan diverges from NewPlan at %d IPUs", ipus)
		}
	}
}

// TestAssemblePlanUnknownComparison: a batch result referencing a
// comparison outside the dataset must be rejected, not written out of
// bounds.
func TestAssemblePlanUnknownComparison(t *testing.T) {
	d := readsData(t, 12, 8)
	bp := mustPlan(t, d, testCfg(1, true))
	outs := make([]*ipukernel.BatchResult, bp.Batches())
	for i := range outs {
		outs[i] = &ipukernel.BatchResult{}
	}
	outs[0] = &ipukernel.BatchResult{
		Out: []ipukernel.AlignOut{{GlobalID: len(d.Comparisons) + 5}},
	}
	_, err := AssemblePlan(bp, outs)
	if err == nil || !strings.Contains(err.Error(), "unknown comparison") {
		t.Fatalf("AssemblePlan = %v, want unknown-comparison error", err)
	}

	outs[0] = &ipukernel.BatchResult{Out: []ipukernel.AlignOut{{GlobalID: -1}}}
	if _, err := AssemblePlan(bp, outs); err == nil {
		t.Fatal("negative GlobalID accepted")
	}
}

// TestAssemblePlanShapeErrors: wrong result counts and missing batches
// are caught.
func TestAssemblePlanShapeErrors(t *testing.T) {
	d := readsData(t, 12, 8)
	bp := mustPlan(t, d, testCfg(1, true))
	if _, err := AssemblePlan(bp, nil); err == nil {
		t.Fatal("mismatched result count accepted")
	}
	outs := make([]*ipukernel.BatchResult, bp.Batches())
	if _, err := AssemblePlan(bp, outs); err == nil {
		t.Fatal("nil batch result accepted")
	}
}

// TestBuildBatchesCancelled: a dead context aborts planning.
func TestBuildBatchesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := readsData(t, 13, 8)
	if _, err := BuildBatches(ctx, d, testCfg(1, true)); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildBatches = %v, want context.Canceled", err)
	}
	if _, err := NewPlanContext(ctx, d, testCfg(1, true)); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewPlanContext = %v, want context.Canceled", err)
	}
}

// TestConfigNormalization: every entry point agrees on defaults.
func TestConfigNormalization(t *testing.T) {
	c := Config{}.Normalized()
	if c.IPUs != 1 || c.Model.Tiles == 0 || c.SpreadFactor != 3 {
		t.Errorf("Normalized() = %+v", c)
	}
	if got := (Config{TilesPerIPU: 1 << 20}).EffectiveTiles(); got != c.Model.Tiles {
		t.Errorf("EffectiveTiles over-model = %d", got)
	}
	if got := (Config{TilesPerIPU: 8}).EffectiveTiles(); got != 8 {
		t.Errorf("EffectiveTiles(8) = %d", got)
	}
}
