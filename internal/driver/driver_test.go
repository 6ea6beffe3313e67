package driver

import (
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testCfg(ipus int, partitionOn bool) Config {
	return Config{
		IPUs:  ipus,
		Model: platform.GC200,
		// Test datasets are tiny relative to 1472 tiles; scale the
		// device down so batching and reuse behave as they do at scale.
		TilesPerIPU: 8,
		Partition:   partitionOn,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
	}
}

func readsData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "drv", GenomeLen: 50000, Coverage: 8, MeanReadLen: 2200, MinReadLen: 800,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 600, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMoreIPUsNeverSlower(t *testing.T) {
	d := readsData(t, 2, 120)
	var prev float64
	for i, n := range []int{1, 2, 4, 8} {
		rep, err := Run(d, testCfg(n, true))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rep.WallSeconds > prev*1.001 {
			t.Errorf("%d IPUs slower than fewer: %g > %g", n, rep.WallSeconds, prev)
		}
		prev = rep.WallSeconds
	}
}

func TestPartitioningReducesTraffic(t *testing.T) {
	d := readsData(t, 3, 150)
	single, err := Run(d, testCfg(4, false))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(d, testCfg(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if multi.HostBytesIn >= single.HostBytesIn {
		t.Errorf("partitioning did not cut traffic: %d -> %d", single.HostBytesIn, multi.HostBytesIn)
	}
	if multi.ReuseFactor <= 1.1 {
		t.Errorf("reuse factor %.2f too low", multi.ReuseFactor)
	}
	if single.ReuseFactor != 1 {
		t.Errorf("single-comparison reuse factor %.2f, want 1", single.ReuseFactor)
	}
	// Scores must be identical either way.
	for i := range single.Results {
		if single.Results[i].Score != multi.Results[i].Score {
			t.Fatalf("cmp %d scores differ between modes", i)
		}
	}
}

func TestDeviceComputeIndependentOfIPUCount(t *testing.T) {
	// Total on-device compute is a property of the workload, not of how
	// many devices share it.
	d := readsData(t, 4, 60)
	r1, err := Run(d, testCfg(1, true))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(d, testCfg(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeviceComputeSeconds != r4.DeviceComputeSeconds {
		t.Errorf("device compute changed with IPU count: %g vs %g",
			r1.DeviceComputeSeconds, r4.DeviceComputeSeconds)
	}
}

func TestGCUPSAndMeanBand(t *testing.T) {
	d := readsData(t, 6, 30)
	rep, err := Run(d, testCfg(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.GCUPS(rep.DeviceComputeSeconds); g <= 0 {
		t.Errorf("GCUPS = %f", g)
	}
	if mb := rep.MeanBand(); mb <= 0 || mb > 1000 {
		t.Errorf("MeanBand = %f", mb)
	}
}

func TestEmptyDataset(t *testing.T) {
	d := workload.MustPack("empty", nil, nil, false)
	rep, err := Run(d, testCfg(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 0 || rep.WallSeconds != 0 {
		t.Errorf("empty dataset produced work: %+v", rep)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := readsData(t, 7, 10)
	cfg := testCfg(0, true) // IPUs=0 → 1
	cfg.Model = platform.IPUModel{}
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(d.Comparisons) {
		t.Error("defaults run failed")
	}
}

// TestUnknownAlgoRejected: an Algo that names no variant — the retired 2,
// or one past the last — fails the run at the kernel's parameter
// validation instead of running as an unbounded Restricted2.
func TestUnknownAlgoRejected(t *testing.T) {
	d := readsData(t, 7, 10)
	for _, a := range []core.Algo{2, 4} {
		cfg := testCfg(1, true)
		cfg.Kernel.Params.Algo = a
		if _, err := Run(d, cfg); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%v: Run returned %v, want the unknown-algorithm error", a, err)
		}
	}
}

func TestInvalidDatasetRejected(t *testing.T) {
	d := workload.MustPack("", [][]byte{[]byte("ACGT")}, nil, false).
		WithComparisons([]workload.Comparison{{H: 0, V: 5, SeedLen: 2}})
	if _, err := Run(d, testCfg(1, true)); err == nil {
		t.Error("invalid dataset accepted")
	}
	if _, err := Run(&workload.Dataset{}, testCfg(1, true)); err == nil {
		t.Error("a dataset without a spine accepted")
	}
}
