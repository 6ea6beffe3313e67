package driver

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/partition"
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

// mustRun is Run's report of d under cfg, failing the test on an error.
func mustRun(t testing.TB, d *workload.Dataset, cfg Config) *Report {
	t.Helper()
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mustPlan is BuildBatches' plan of d under cfg, failing the test on an
// error.
func mustPlan(t testing.TB, d *workload.Dataset, cfg Config) *BatchPlan {
	t.Helper()
	bp, err := BuildBatches(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestMoreIPUsNeverSlower(t *testing.T) {
	d := readsData(t, 2, 120)
	var prev float64
	for i, n := range []int{1, 2, 4, 8} {
		rep := mustRun(t, d, testCfg(n, true))
		if i > 0 && rep.WallSeconds > prev*1.001 {
			t.Errorf("%d IPUs slower than fewer: %g > %g", n, rep.WallSeconds, prev)
		}
		prev = rep.WallSeconds
	}
}

func TestPartitioningReducesTraffic(t *testing.T) {
	d := readsData(t, 3, 150)
	single := mustRun(t, d, testCfg(4, false))
	multi := mustRun(t, d, testCfg(4, true))
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
	r1 := mustRun(t, d, testCfg(1, true))
	r4 := mustRun(t, d, testCfg(4, true))
	if r1.DeviceComputeSeconds != r4.DeviceComputeSeconds {
		t.Errorf("device compute changed with IPU count: %g vs %g",
			r1.DeviceComputeSeconds, r4.DeviceComputeSeconds)
	}
}

func TestGCUPSAndMeanBand(t *testing.T) {
	d := readsData(t, 6, 30)
	rep := mustRun(t, d, testCfg(1, true))
	if g := rep.GCUPS(rep.DeviceComputeSeconds); g <= 0 {
		t.Errorf("GCUPS = %f", g)
	}
	if rep.Antidiags == 0 {
		t.Fatal("no antidiagonals counted")
	}
	if mb := float64(rep.SumBand) / float64(rep.Antidiags); mb <= 0 || mb > 1000 {
		t.Errorf("mean band = %f", mb)
	}
}

func TestEmptyDataset(t *testing.T) {
	d := workload.MustPack("empty", nil, nil, false)
	rep := mustRun(t, d, testCfg(1, true))
	if rep.Batches != 0 || rep.WallSeconds != 0 {
		t.Errorf("empty dataset produced work: %+v", rep)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := readsData(t, 7, 10)
	cfg := testCfg(0, true) // IPUs=0 → 1
	cfg.Model = platform.IPUModel{}
	rep := mustRun(t, d, cfg)
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

// workloadCfg is the driver configuration of the benchmark's workloads —
// a 1/8-scale GC200, batches capped at 64 jobs, every Table 1 flag on —
// under the given X, δb and traceback switch.
func workloadCfg(x, deltaB int, traceback bool) Config {
	cfg := testCfg(1, true)
	cfg.TilesPerIPU = 0
	cfg.Model = platform.GC200.Scaled(8)
	cfg.Kernel.Params.X, cfg.Kernel.Params.DeltaB = x, deltaB
	cfg.MaxBatchJobs = 64
	cfg.Traceback = traceback
	return cfg
}

// shortReads is the benchmark's shortread_plan data at seed 7: 150 bp
// reads, 32 000 comparisons.
var shortReads = synth.ReadsSpec{
	Name: "short", GenomeLen: 8_400, Coverage: 30, MeanReadLen: 150, MinReadLen: 100, MaxReadLen: 250,
	Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 40, Seed: 7, MaxComparisons: 32_000,
}

// BenchmarkBuildBatches plans the benchmark's shortread_plan shape under
// its configuration: X 5, δb 32. Planning is the only step before such a
// job's first batch runs.
func BenchmarkBuildBatches(b *testing.B) {
	d, cfg := synth.Reads(shortReads), workloadCfg(5, 32, false)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildBatches(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// traceReads is the benchmark's service_trace_cold data at seed 7: noisy
// long reads of 600–1 350 bp, 1 300 comparisons.
var traceReads = synth.ReadsSpec{
	Name: "trace", GenomeLen: 13_200, Coverage: 12, MeanReadLen: 900, MinReadLen: 600, MaxReadLen: 1350,
	Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
	SeedLen: 17, MinOverlap: 225, Seed: 7, MaxComparisons: 1_300,
}

// BenchmarkTraceGate runs traced jobs of the service_trace_cold shape
// (X 15, δb 256) ungated and under cutoffs that half and a twentieth of
// the comparisons pass, each the score-only run's matching quantile. The
// host records every traced side once whatever the cutoff, so the gate
// saves it only the skipped comparisons' CIGAR joins; pass reports the
// fraction traced.
func BenchmarkTraceGate(b *testing.B) {
	d := synth.Reads(traceReads)
	rep, err := Run(d, workloadCfg(15, 256, false))
	if err != nil {
		b.Fatal(err)
	}
	scores := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		scores[i] = r.Score
	}
	slices.Sort(scores)
	for _, g := range []struct {
		name string
		cut  int
	}{
		{"ungated", 0},
		{"pass-50", scores[len(scores)/2]},
		{"pass-5", scores[len(scores)*95/100]},
	} {
		b.Run(g.name, func(b *testing.B) {
			cfg := workloadCfg(15, 256, true)
			cfg.Kernel.TraceMinScore = g.cut
			var rep *Report
			for b.Loop() {
				if rep, err = Run(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.TracedExtensions)/float64(rep.TracedExtensions+rep.TraceSkippedExtensions), "pass")
		})
	}
}

// TestBuildBatchesAllocs fences BenchmarkBuildBatches' allocations. Every
// tile's jobs and sequence spans are windows of one allocation per call
// and the batch headers come from doubling chunks, so the count does not
// follow the ≈ 550 batches: 93 allocations and 2.95 MB a call, against
// 2 266 and 3.25 MB when each tile of each batch allocated its own.
// Not parallel: both counters are the whole process's.
func TestBuildBatchesAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 200, 3_100_000
	d, cfg := synth.Reads(shortReads), workloadCfg(5, 32, false)
	build := func() {
		if _, err := BuildBatches(context.Background(), d, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, build)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d B per call", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("BuildBatches makes %.0f allocations and %d B a call, over the %d and %d B fence", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestStandalonePartitionMatchesBuildBatches composes partition's three
// exported stages the way a caller timing them one by one does —
// DeriveSeqBudget, BuildItems under the driver's spread cap,
// MakeBatchesFanout — and requires BuildBatches' exact batches, under the
// benchmark workloads' configurations: δb 32 and 256, untraced and traced.
// service_replay_warm runs longread_cold's configuration.
func TestStandalonePartitionMatchesBuildBatches(t *testing.T) {
	longReads := synth.ReadsSpec{
		Name: "long", GenomeLen: 12_000, Coverage: 12, MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 225, Seed: 7, MaxComparisons: 1_200,
	}
	traceReads := longReads
	traceReads.MinReadLen, traceReads.MaxReadLen = 600, 1350
	for _, w := range []struct {
		name      string
		reads     synth.ReadsSpec
		x, deltaB int
		traceback bool
	}{
		{"longread_cold", longReads, 15, 256, false},
		{"shortread_plan", shortReads, 5, 32, false},
		{"service_trace_cold", traceReads, 15, 256, true},
	} {
		d, cfg := synth.Reads(w.reads), workloadCfg(w.x, w.deltaB, w.traceback).Normalized()
		bp, err := BuildBatches(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		budget, err := partition.DeriveSeqBudget(d, cfg.Kernel, cfg.Model)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tiles := cfg.EffectiveTiles()
		target := tiles * cfg.SpreadFactor
		items := partition.BuildItems(d, partition.Options{
			SeqBudget: budget, Reuse: cfg.Partition,
			MaxCmps: (len(d.Comparisons) + target - 1) / target,
		})
		batches, err := partition.MakeBatchesFanout(d, items, tiles, cfg.Kernel, cfg.Model, cfg.MaxBatchJobs, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(bp.batches) < 2 {
			t.Fatalf("%s: %d batches; the check needs several", w.name, len(bp.batches))
		}
		if !reflect.DeepEqual(batches, bp.batches) {
			t.Errorf("%s: the standalone stages made %d batches that differ from BuildBatches' %d",
				w.name, len(batches), len(bp.batches))
		}
	}
}
