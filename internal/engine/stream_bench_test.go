package engine

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// BenchmarkStreamedJob runs the repository benchmark's shortread_plan
// shape through the engine with its stream drained: 150 bp reads, ≈ 32 000
// comparisons in batches of at most 64, every Table 1 kernel optimisation
// on, a 1/8-scale GC200, no cache. A job is submit, drain Results, Wait.
// B/op is what a streamed job allocates, the batch hand-off — kernel
// results, the stream's view of them and the report's array — included.
func BenchmarkStreamedJob(b *testing.B) {
	d := synth.Reads(synth.ReadsSpec{
		Name: "shortread", GenomeLen: 8_400, Coverage: 30,
		MeanReadLen: 150, MinReadLen: 100, MaxReadLen: 250,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 40,
		MaxComparisons: 32_000, Seed: 7,
	})
	const scale = 8
	cfg := driver.Config{
		IPUs:      1,
		Model:     platform.GC200.Scaled(scale),
		Partition: true,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 5, DeltaB: 32},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
		BatchOverheadSeconds: driver.DefaultBatchOverheadSeconds / scale,
		MaxBatchJobs:         64,
	}
	eng := New(WithDriverConfig(cfg))
	defer eng.Close()
	job := func() {
		j, err := eng.Submit(context.Background(), d)
		if err != nil {
			b.Fatal(err)
		}
		for range j.Results() {
		}
		if _, err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	job() // warm the executors' devices and the kernel's pooled executors

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
	b.ReportMetric(float64(len(d.Comparisons)), "cmps/op")
}
