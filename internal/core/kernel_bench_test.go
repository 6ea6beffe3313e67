package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// Kernel-level micro-benchmarks: single-core Mcells/s of each variant on
// the same 2000bp/15%-error workload as the facade benchmarks. The
// per-layer metrics core.restricted2.mcells_per_s and
// core.restricted2_narrow.mcells_per_s in BENCHMARK.json both time the one
// int32 Restricted2 sweep on the benchmark's own pairs: the second row's
// Params.Tier selects nothing.

func benchKernelPair(n int, errRate float64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(42))
	h := randDNA(rng, n)
	v := mutate(rng, h, errRate)
	return h, v
}

func benchKernel(b *testing.B, algo Algo, deltaB int) {
	b.Helper()
	h, v := benchKernelPair(2000, 0.15)
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, Algo: algo, DeltaB: deltaB}
	if algo == AlgoAffine {
		p.GapOpen = -2
	}
	hv, vv := NewView(h), NewView(v)
	var ws Workspace
	ws.swept(hv, vv, p) // warm buffers; the loop must be allocation-free
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ws.swept(hv, vv, p)
		cells += r.Stats.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernelRestricted2Wide(b *testing.B) { benchKernel(b, AlgoRestricted2, 256) }
func BenchmarkKernelStandard3Wide(b *testing.B)   { benchKernel(b, AlgoStandard3, 0) }
func BenchmarkKernelAffineWide(b *testing.B)      { benchKernel(b, AlgoAffine, 0) }

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

// benchSides turns pairs into the sides of one queue: a pair of reversed
// views is a left extension over the whole of both reads, a pair of
// forward views a right one.
func benchSides(pairs [][2]View) []Side {
	sides := make([]Side, len(pairs))
	for i, pr := range pairs {
		h, v := pr[0].data, pr[1].data
		sides[i] = Side{H: h, V: v, Left: pr[0].rev}
		if pr[0].rev {
			sides[i].HOff, sides[i].VOff = len(h), len(v)
		}
	}
	return sides
}

// benchKernelBatch is benchKernelPairs for ExtendBatch: every pass runs the
// pairs as one queue, two extensions in flight, and ns/ext times a queue
// of as many empty sides.
func benchKernelBatch(b *testing.B, pairs [][2]View, p Params) {
	b.Helper()
	sides := benchSides(pairs)
	empty := make([]Side, len(sides))
	for i := range empty {
		empty[i].Left = sides[i].Left
	}
	out := make([]Result, len(sides))
	var ws Workspace
	ws.ExtendBatch(&p, sides, out)
	var cells, antid int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ExtendBatch(&p, sides, out)
		for _, r := range out {
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
		ws.ExtendBatch(&p, empty, out)
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(emptyRounds*len(empty)), "ns/ext")
}

// benchKernelWorkload runs the linear variants over one workload profile's
// pairs: the two int32 score layouts — Restricted2's also as one queue of
// all the pairs (Restricted2WideBatch), so that one process reads one lane
// against two — the recording sweep alone (RecordSweepRestricted2Wide:
// rows, direction codes and packing, with no walk and no CIGAR, so that
// one process reads a recording row against a score row), and a whole
// traced extension (RecordRestricted2Wide: what it costs beyond its score
// pass, walk and CIGAR included).
func benchKernelWorkload(b *testing.B, pairs [][2]View, p Params) {
	score := func(algo Algo) func(*testing.B) {
		p := p
		p.Algo = algo
		return func(b *testing.B) {
			benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result { return ws.swept(h, v, p) })
		}
	}
	b.Run("Restricted2Wide", score(AlgoRestricted2))
	b.Run("Restricted2WideBatch", func(b *testing.B) {
		p := p
		p.Algo = AlgoRestricted2
		benchKernelBatch(b, pairs, p)
	})
	b.Run("Standard3Wide", score(AlgoStandard3))
	b.Run("RecordSweepRestricted2Wide", func(b *testing.B) {
		benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result { return recordSweep(b, ws, h, v, p) })
	})
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

// recordSweep runs the recording sweep alone: no walk, no CIGAR.
func recordSweep(b *testing.B, ws *Workspace, h, v View, p Params) Result {
	r, _, err := ws.fusedLinear(h, v, p)
	if err != nil {
		b.Fatal(err)
	}
	return r
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
// row is one masked vector, and what ns/row measures is a row's frame
// around that vector — window, bounds, counters, limit, best, rotation, and
// the branches that go with the data — plus the extension's set-up
// (ns/ext) spread over its few hundred rows. One lane's row is also the
// chain from its prune mask to the next row's window, ≈ 20 cycles by
// instruction latency: Restricted2WideBatch, whose other lane's row runs
// while that chain resolves, reads ≈ 11 ns/row against ≈ 16 for one lane
// (≈ 30 cycles at the host's nominal 2.1 GHz).
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
			benchKernelPairs(b, pairs, func(ws *Workspace, h, v View) Result { return ws.swept(h, v, p) })
		})
	}
}

// BenchmarkKernelRowCost fits BenchmarkKernelBandSweep's line in one
// process: every round times one pass over the long-read pairs at each X
// from 3 to 120 (band ≈ 4 … 100 cells), under each row kind — the score
// sweep and the recording sweep alone, without walk or CIGAR — and a
// least-squares line through each X's fastest pass, ns/row against band,
// reports a row's fixed cost (fixed-ns/row, the intercept) and a cell's
// (ns/cell, the slope). The fastest pass, because a neighbour on a shared
// host slows single passes by half and more, and would tilt the line.
func BenchmarkKernelRowCost(b *testing.B) {
	pairs := longreadPairs()
	kinds := []struct {
		name string
		run  func(ws *Workspace, h, v View, p Params) Result
	}{
		{"Score", func(ws *Workspace, h, v View, p Params) Result { return ws.swept(h, v, p) }},
		{"Record", func(ws *Workspace, h, v View, p Params) Result { return recordSweep(b, ws, h, v, p) }},
	}
	for _, kind := range kinds {
		b.Run(kind.name, func(b *testing.B) {
			var ws Workspace
			pass := func(x int) (ns, band float64) {
				p := Params{Scorer: scoring.DNADefault, Gap: -1, X: x, Algo: AlgoRestricted2}
				var cells, antid int64
				start := time.Now()
				for _, pr := range pairs {
					r := kind.run(&ws, pr[0], pr[1], p)
					cells += r.Stats.Cells
					antid += int64(r.Stats.Antidiagonals)
				}
				return float64(time.Since(start).Nanoseconds()) / float64(antid), float64(cells) / float64(antid)
			}
			xs := []int{3, 5, 15, 60, 120}
			for _, x := range xs {
				pass(x) // warm the workspace
			}
			fastest, bands := make([]float64, len(xs)), make([]float64, len(xs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, x := range xs {
					ns, band := pass(x)
					if i == 0 || ns < fastest[k] {
						fastest[k] = ns
					}
					bands[k] = band
				}
			}
			var n, sx, sy, sxx, sxy float64
			for k := range xs {
				x, y := bands[k], fastest[k]
				n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
			}
			slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
			b.ReportMetric((sy-slope*sx)/n, "fixed-ns/row")
			b.ReportMetric(slope, "ns/cell")
		})
	}
}

// TestKernelLoopsAllocationFree pins the alloc regression: with a warm
// workspace, no variant may allocate per extension — under any view
// direction, so the staged operand copies (forward/forward
// reverses v, reversed/reversed h, reversed/forward both) are reused too.
func TestKernelLoopsAllocationFree(t *testing.T) {
	h, v := benchKernelPair(2000, 0.15)
	for _, dir := range []struct{ hRev, vRev bool }{{false, false}, {true, true}, {false, true}, {true, false}} {
		hv, vv := View{h, dir.hRev}, View{v, dir.vRev}
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			p := Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -2, X: 15, DeltaB: 256, Algo: algo}
			var ws Workspace
			ws.swept(hv, vv, p)
			if n := testing.AllocsPerRun(10, func() { ws.swept(hv, vv, p) }); n != 0 {
				t.Errorf("%v h.rev=%v v.rev=%v: %.0f allocs per warm extension, want 0", algo, dir.hRev, dir.vRev, n)
			}
		}
	}
}
