// Package xdropipu_test hosts one testing.B benchmark per table and
// figure of the paper's evaluation (§5–§6), wrapping the experiment
// harness at reduced size, plus micro-benchmarks of the core aligner.
// Regenerate full-size artifacts with: go run ./cmd/benchtables
package xdropipu_test

import (
	"io"
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu"
	"github.com/sram-align/xdropipu/internal/bench"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/synth"
)

// benchOptions shrinks every experiment so `go test -bench .` completes
// within a normal benchmark budget while still exercising the full path.
func benchOptions() bench.Options {
	return bench.Options{W: io.Discard, Scale: 32, SizeFactor: 0.08, Seed: 11}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	r, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Ablation regenerates Table 1 (optimisation ablation).
func BenchmarkTable1Ablation(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Datasets regenerates Table 2 (dataset statistics).
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig1Banded regenerates Fig. 1 (banded vs X-Drop).
func BenchmarkFig1Banded(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2SearchSpace regenerates Fig. 2 (search space vs X).
func BenchmarkFig2SearchSpace(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3Memory regenerates Fig. 3 (working-memory comparison).
func BenchmarkFig3Memory(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig5GCUPS regenerates Fig. 5 (GCUPS vs CPU/GPU baselines).
func BenchmarkFig5GCUPS(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Band regenerates Fig. 6 (δw vs error rate).
func BenchmarkFig6Band(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Scaling regenerates Fig. 7 (strong scaling 1→32 IPUs).
func BenchmarkFig7Scaling(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkMemoryRestriction regenerates the §6.1 δw/memory table.
func BenchmarkMemoryRestriction(b *testing.B) { runExperiment(b, "memory") }

// BenchmarkRaces regenerates the §4.1.3 work-stealing race comparison.
func BenchmarkRaces(b *testing.B) { runExperiment(b, "races") }

// BenchmarkPartition regenerates the §6.2 batch-reduction measurement.
func BenchmarkPartition(b *testing.B) { runExperiment(b, "partition") }

// BenchmarkELBA regenerates the §6.3.1 ELBA alignment-phase comparison.
func BenchmarkELBA(b *testing.B) { runExperiment(b, "elba") }

// BenchmarkPASTIS regenerates the §6.3.2 PASTIS alignment-phase
// comparison.
func BenchmarkPASTIS(b *testing.B) { runExperiment(b, "pastis") }

// Micro-benchmarks: raw Go throughput of the aligner variants (real
// ns/op, not modeled time).

func benchPair(n int, err float64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(42))
	h := synth.RandDNA(rng, n)
	v := synth.UniformDNA(err).Apply(rng, h)
	return h, v
}

func benchAlign(b *testing.B, algo core.Algo, deltaB int) {
	b.Helper()
	h, v := benchPair(2000, 0.15)
	p := xdropipu.Params{Scorer: xdropipu.DNAScorer, Gap: -1, X: 15, Algo: algo, DeltaB: deltaB}
	var ws xdropipu.Workspace
	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ws.ExtendRight(h, v, 0, 0, p)
		cells += r.Stats.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkRestricted2 measures the paper's memory-restricted aligner.
func BenchmarkRestricted2(b *testing.B) { benchAlign(b, core.AlgoRestricted2, 256) }

// BenchmarkStandard3 measures the standard three-antidiagonal aligner.
func BenchmarkStandard3(b *testing.B) { benchAlign(b, core.AlgoStandard3, 0) }

// BenchmarkAffine measures the affine-gap (ksw2-style) aligner.
func BenchmarkAffine(b *testing.B) { benchAlign(b, core.AlgoAffine, 0) }

// benchTraceback measures the traceback replay (the opt-in second pass)
// on the same workload as benchAlign, so score-only vs traceback-on
// Mcells/s compare directly (core.trace_replay.mcells_per_s in
// BENCHMARK.json is the same ratio on the benchmark's own pairs).
func benchTraceback(b *testing.B, algo core.Algo, deltaB int) {
	b.Helper()
	h, v := benchPair(2000, 0.15)
	p := xdropipu.Params{Scorer: xdropipu.DNAScorer, Gap: -1, X: 15, Algo: algo, DeltaB: deltaB}
	var ws xdropipu.Workspace
	var cells int64
	var traceBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ws.ExtendRight(h, v, 0, 0, p)
		cells += r.Stats.Cells
		tr, err := ws.TracebackRight(h, v, 0, 0, p)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Score != r.Score {
			b.Fatalf("traceback score %d != kernel %d", tr.Score, r.Score)
		}
		traceBytes = tr.TraceBytes
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(traceBytes), "traceB")
}

// BenchmarkRestricted2Traceback measures the memory-restricted aligner
// with CIGAR emission (two passes).
func BenchmarkRestricted2Traceback(b *testing.B) { benchTraceback(b, core.AlgoRestricted2, 256) }

// BenchmarkExtendSeed measures a full two-sided seed extension.
func BenchmarkExtendSeed(b *testing.B) {
	h, v := benchPair(4000, 0.15)
	synth.PlantSeed(h, v, 2000, 2000, 17)
	p := xdropipu.Params{Scorer: xdropipu.DNAScorer, Gap: -1, X: 15, DeltaB: 256}
	s := xdropipu.Seed{H: 2000, V: 2000, Len: 17}
	var ws xdropipu.Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.ExtendSeed(h, v, s, p); err != nil {
			b.Fatal(err)
		}
	}
}
