package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// Kernel-level micro-benchmarks: single-core Mcells/s of each variant at
// each score width, on the same 2000bp/15%-error workload as the facade
// benchmarks. The per-layer metrics core.restricted2.mcells_per_s and
// core.restricted2_narrow.mcells_per_s in BENCHMARK.json time the same
// two tiers on the benchmark's own pairs.

func benchKernelPair(n int, errRate float64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(42))
	h := randDNA(rng, n)
	v := mutate(rng, h, errRate)
	return h, v
}

func benchKernel(b *testing.B, algo Algo, deltaB int, tier Tier) {
	b.Helper()
	h, v := benchKernelPair(2000, 0.15)
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, Algo: algo, DeltaB: deltaB, Tier: tier}
	if algo == AlgoAffine {
		p.GapOpen = -2
	}
	hv, vv := NewView(h), NewView(v)
	var ws Workspace
	ws.align(hv, vv, p) // warm buffers; the loop must be allocation-free
	var cells int64
	var promotions int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ws.align(hv, vv, p)
		cells += r.Stats.Cells
		if r.Stats.Promoted {
			promotions++
		}
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	if tier == TierNarrow && promotions > 0 {
		b.Fatalf("benchmark workload promoted %d/%d runs; tier comparison invalid", promotions, b.N)
	}
}

func BenchmarkKernelRestricted2Wide(b *testing.B)   { benchKernel(b, AlgoRestricted2, 256, TierWide) }
func BenchmarkKernelRestricted2Narrow(b *testing.B) { benchKernel(b, AlgoRestricted2, 256, TierNarrow) }
func BenchmarkKernelStandard3Wide(b *testing.B)     { benchKernel(b, AlgoStandard3, 0, TierWide) }
func BenchmarkKernelStandard3Narrow(b *testing.B)   { benchKernel(b, AlgoStandard3, 0, TierNarrow) }
func BenchmarkKernelAffineWide(b *testing.B)        { benchKernel(b, AlgoAffine, 0, TierWide) }
func BenchmarkKernelAffineNarrow(b *testing.B)      { benchKernel(b, AlgoAffine, 0, TierNarrow) }

// benchPairs draws count read pairs for the workload-profile benchmarks:
// two reads of one locus of minLen..maxLen bases under one error profile,
// every other pair through reversed views like the left side of a seed
// extension. The 2000 bp / 15 % pair above never takes reversed views.
func benchPairs(seed int64, count, minLen, maxLen int, errs synth.MutationProfile) [][2]View {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]View, count)
	for i := range pairs {
		g := randDNA(rng, minLen+rng.Intn(maxLen-minLen+1))
		h, v := errs.Apply(rng, g), errs.Apply(rng, g)
		if i%2 == 0 {
			pairs[i] = [2]View{NewView(h), NewView(v)}
		} else {
			pairs[i] = [2]View{NewReversedView(reversed(h)), NewReversedView(reversed(v))}
		}
	}
	return pairs
}

// benchKernelPairs times run over pairs with a warm workspace and reports
// Mcells/s, the mean computed band (cells per antidiagonal), ns per
// antidiagonal row — the figure that matters once the band is so narrow
// that per-row fixed cost outweighs the cells; it is all-in, set-up
// included — and ns/ext: what one extension costs before its first row,
// timed behind the main loop over empty views of the same directions
// (buffer set-up, seeding, the Result by value; not the per-byte operand
// staging, which scales with the rows).
func benchKernelPairs(b *testing.B, pairs [][2]View, run func(ws *Workspace, h, v View) Result) {
	b.Helper()
	var ws Workspace
	for _, pr := range pairs {
		run(&ws, pr[0], pr[1])
	}
	var cells, antid int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range pairs {
			r := run(&ws, pr[0], pr[1])
			cells += r.Stats.Cells
			antid += int64(r.Stats.Antidiagonals)
		}
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(cells)/float64(antid), "band")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(antid), "ns/row")

	b.StopTimer()
	const emptyRounds = 64
	start := time.Now()
	for i := 0; i < emptyRounds; i++ {
		for _, pr := range pairs {
			run(&ws, View{rev: pr[0].rev}, View{rev: pr[1].rev})
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(emptyRounds*len(pairs)), "ns/ext")
}

// benchKernelWorkload runs the linear variants over one workload profile's
// pairs: the two int32 score layouts, the int16 tier, and the recording
// sweep alone (what a traced extension costs beyond its score pass:
// direction codes, packing, walk and CIGAR included).
func benchKernelWorkload(b *testing.B, pairs [][2]View, p Params) {
	score := func(algo Algo, tier Tier) func(*testing.B) {
		p := p
		p.Algo, p.Tier = algo, tier
		return func(b *testing.B) {
			benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result { return ws.align(h, v, p) })
		}
	}
	b.Run("Restricted2Wide", score(AlgoRestricted2, TierWide))
	b.Run("Standard3Wide", score(AlgoStandard3, TierWide))
	b.Run("Restricted2Narrow", score(AlgoRestricted2, TierNarrow))
	b.Run("RecordRestricted2Wide", func(b *testing.B) {
		benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result {
			r, _, err := ws.record(h, v, p, !h.rev)
			if err != nil {
				b.Fatal(err)
			}
			return r
		})
	})
}

// BenchmarkKernelLongread is the regime the benchmark's longread_cold
// workload runs in: many mid-length extensions of noisy read pairs at
// X = 15, δb = 256. It reports a mean computed band of 19 cells, so a row
// is two vectors and a tail and per-antidiagonal fixed cost counts.
func BenchmarkKernelLongread(b *testing.B) {
	benchKernelWorkload(b, longreadPairs(), Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256})
}

// longreadPairs are the 64 noisy pairs of 600–1200 bases the long-read
// benchmarks share.
func longreadPairs() [][2]View {
	noisy := synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24}
	return benchPairs(43, 64, 600, 1200, noisy)
}

// BenchmarkKernelShortread is shortread_plan's regime: HiFi reads of
// 100–250 bp at X = 5, δb = 32. The band is five or six cells, so every
// row is one masked vector, and what ns/row measures is the chain from one
// row's prune mask to the next row's window and loads — the antidiagonal
// loop itself, which on the int32 tier never leaves sweepLinearVec — plus
// the extension's set-up (ns/ext) spread over its few hundred rows.
func BenchmarkKernelShortread(b *testing.B) {
	benchKernelWorkload(b, benchPairs(44, 256, 100, 250, synth.HiFiDNA()),
		Params{Scorer: scoring.DNADefault, Gap: -1, X: 5, DeltaB: 32})
}

// BenchmarkKernelBandSweep separates a row's fixed cost from its per-cell
// cost: the long-read pairs under Restricted2 with no δb, at X from 3 to
// 120, which moves the mean band from about 4 cells to about 100. ns/row
// against band is close to a line; its intercept is the fixed cost of a
// row, its slope the cost of a cell.
func BenchmarkKernelBandSweep(b *testing.B) {
	pairs := longreadPairs()
	for _, x := range []int{3, 5, 15, 60, 120} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: x, Algo: AlgoRestricted2}
		b.Run(fmt.Sprintf("X=%d", x), func(b *testing.B) {
			benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result { return ws.align(h, v, p) })
		})
	}
}

// TestKernelLoopsAllocationFree pins the alloc regression: with a warm
// workspace, no variant may allocate per extension on either tier — under
// any view direction, so the staged operand copies (forward/forward
// reverses v, reversed/reversed h, reversed/forward both) are reused too.
func TestKernelLoopsAllocationFree(t *testing.T) {
	h, v := benchKernelPair(2000, 0.15)
	for _, dir := range []struct{ hRev, vRev bool }{{false, false}, {true, true}, {false, true}, {true, false}} {
		hv, vv := View{h, dir.hRev}, View{v, dir.vRev}
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			for _, tier := range []Tier{TierWide, TierNarrow, TierAuto} {
				p := Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -2, X: 15, DeltaB: 256, Algo: algo, Tier: tier}
				var ws Workspace
				ws.align(hv, vv, p)
				if n := testing.AllocsPerRun(10, func() { ws.align(hv, vv, p) }); n != 0 {
					t.Errorf("%v/%v h.rev=%v v.rev=%v: %.0f allocs per warm extension, want 0", algo, tier, dir.hRev, dir.vRev, n)
				}
			}
		}
	}
}
