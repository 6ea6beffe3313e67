package bench

import (
	"fmt"
	"math/rand"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// Fig1 reproduces the Fig. 1 concept: a static band misses an optimal
// alignment displaced by a long indel, while the X-Drop dynamic band
// finds it.
func Fig1(opt Options) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 11))
	h := synth.RandDNA(rng, 1200)
	// A 150 bp insertion shifts the tail of the optimal path off any
	// narrow static band.
	v := append(append(append([]byte{}, h[:500]...), synth.RandDNA(rng, 150)...), h[500:]...)

	full := oracle.Extend(h, v, scoring.DNADefault.Table(), -1, oracle.Unpruned)
	tab := metrics.NewTable("Fig. 1 — static band vs X-Drop on a long indel",
		"method", "score", "optimal", "cells")
	for _, hw := range []int{20, 60} {
		r := core.Banded(core.NewView(h), core.NewView(v), hw, scoring.DNADefault, -1)
		tab.AddRow(fmt.Sprintf("banded ±%d", hw), r.Score, r.Score == full.Score, r.Stats.Cells)
	}
	xd := core.Align(core.NewView(h), core.NewView(v), core.Params{
		Scorer: scoring.DNADefault, Gap: -1, X: 160, Algo: core.AlgoStandard3,
	})
	tab.AddRow("x-drop X=160", xd.Score, xd.Score == full.Score, xd.Stats.Cells)
	tab.AddRow("full DP", full.Score, true, cells(full.Computed[1:])) // every cell but the origin
	tab.Render(opt.W)
	return nil
}

// Fig2 reproduces the search-space figure: the computed region of the
// scoring matrix for X = 10, 20 and ∞, rendered as a density map.
func Fig2(opt Options) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 12))
	h := synth.RandDNA(rng, 480)
	v := synth.UniformDNA(0.15).Apply(rng, h)

	for _, x := range []int{10, 20, 1 << 20} {
		label := fmt.Sprintf("X=%d", x)
		if x >= 1<<20 {
			label = "X=∞"
		}
		e := oracle.Extend(h, v, scoring.DNADefault.Table(), -1, x)
		dw := 0
		for _, s := range e.Live {
			dw = max(dw, s.Width())
		}
		n := cells(e.Computed)
		frac := float64(n) / float64((len(h)+1)*(len(v)+1))
		fmt.Fprintf(opt.W, "Fig. 2 (%s): score=%d cells=%d (%.1f%% of matrix), δw=%d\n",
			label, e.Score, n, 100*frac, dw)
		renderMask(opt, len(h), len(v), e.Computed)
	}
	fmt.Fprintln(opt.W)
	return nil
}

// cells sums the widths of spans.
func cells(spans []oracle.Span) int64 {
	var n int64
	for _, s := range spans {
		n += int64(s.Width())
	}
	return n
}

// renderMask draws the computed cells of an m×n extension, one span per
// antidiagonal, downsampled to a character grid (the gray area of Fig. 2).
func renderMask(opt Options, m, n int, computed []oracle.Span) {
	const grid = 48
	stepI := max(1, (m+grid)/grid)
	stepJ := max(1, (n+grid)/grid)
	for i := 0; i <= m; i += stepI {
		line := make([]byte, 0, grid+2)
		for j := 0; j <= n; j += stepJ {
			hit := false
			for di := 0; di < stepI && i+di <= m && !hit; di++ {
				for dj := 0; dj < stepJ && j+dj <= n; dj++ {
					if d := i + di + j + dj; d < len(computed) && computed[d].Lo <= i+di && i+di <= computed[d].Hi {
						hit = true
						break
					}
				}
			}
			if hit {
				line = append(line, '#')
			} else {
				line = append(line, '.')
			}
		}
		fmt.Fprintf(opt.W, "  %s\n", line)
	}
}

// Fig3 reproduces the memory-footprint comparison of Fig. 3: the standard
// three-antidiagonal algorithm (3δ) versus the memory-restricted variant
// (2δb) across sequence lengths, per thread and per six-thread tile.
func Fig3(opt Options) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 13))
	tab := metrics.NewTable("Fig. 3 — working memory per alignment (X=15)",
		"length", "δw measured", "standard 3δ", "restricted 2δb", "ratio", "6-thread tile 3δ", "fits 624KB?")
	for _, n := range []int{1000, 5000, 10000, 25000} {
		h := synth.RandDNA(rng, n)
		v := synth.UniformDNA(0.1).Apply(rng, h)
		r := core.Align(core.NewView(h), core.NewView(v), core.Params{
			Scorer: scoring.DNADefault, Gap: -1, X: 15, Algo: core.AlgoStandard3,
		})
		dw := r.Stats.MaxLiveBand
		deltaB := roundUp(dw+dw/4, 32) // δb chosen ≥ δw with headroom
		std := 3 * (n + 1) * 4
		restricted := 2 * deltaB * 4
		tileStd := 6 * std
		tab.AddRow(n, dw, std, restricted,
			metrics.Ratio(float64(std)/float64(restricted)),
			tileStd, tileStd <= 624*1024)
	}
	tab.AddNote("the paper's 55× headline is the 25 kb row; 6 threads of 3δ exceed tile SRAM from ~9 kb")
	tab.Render(opt.W)
	return nil
}

func roundUp(v, to int) int {
	return (v + to - 1) / to * to
}

// Fig6 reproduces the band-width sweep of Fig. 6: the maximum spread δw
// of the live antidiagonal window for error rates 0–100 % across X
// values.
func Fig6(opt Options) error {
	opt = opt.withDefaults()
	xs := []int{5, 10, 15, 20, 30, 50, 100}
	header := []string{"error %"}
	for _, x := range xs {
		header = append(header, fmt.Sprintf("X=%d", x))
	}
	tab := metrics.NewTable("Fig. 6 — max working band δw vs symbol mismatch rate", header...)

	length := opt.n(4000)
	rng := rand.New(rand.NewSource(opt.Seed + 16))
	for e := 0; e <= 100; e += 10 {
		row := []any{e}
		for _, x := range xs {
			// Two pairs per point; report the larger δw, matching the
			// paper's "find the maximum spread".
			dw := 0
			for rep := 0; rep < 2; rep++ {
				h := synth.RandDNA(rng, length)
				v := synth.SubOnlyDNA(float64(e)/100).Apply(rng, h)
				r := core.Align(core.NewView(h), core.NewView(v), core.Params{
					Scorer: scoring.DNADefault, Gap: -1, X: x, Algo: core.AlgoStandard3,
				})
				if r.Stats.MaxLiveBand > dw {
					dw = r.Stats.MaxLiveBand
				}
			}
			row = append(row, dw)
		}
		tab.AddRow(row...)
	}
	tab.AddNote("paper sweeps 20 kb pairs; here %d bp (δw is length-insensitive once the band fits)", length)
	tab.Render(opt.W)
	return nil
}
