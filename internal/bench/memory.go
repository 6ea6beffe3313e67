package bench

import (
	"bytes"
	"math/rand"
	"slices"

	"github.com/sram-align/xdropipu/internal/baselines"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Memory reproduces the §6.1 measurement: the working band δw on
// realistic E. coli-like data for X ∈ {10, 15, 30}, the memory saving
// from choosing δb ≥ δw (the paper reports 98.2 % at X=15), and the 55×
// footprint headline for 25 kb sequences.
func Memory(opt Options) error {
	opt = opt.withDefaults()
	// Datasets are immutable and this experiment plants false seeds in
	// place — so copy the generator's pool out, edit the copy, re-pack.
	base := opt.Ecoli()
	arena, _ := base.Spine()
	seqs := arena.SeqViews()
	for i, s := range seqs {
		seqs[i] = bytes.Clone(s)
	}
	cmps := slices.Clone(base.Comparisons[:min(len(base.Comparisons), opt.n(400))])
	// Real overlap-detection output contains false candidates (repeat-
	// induced pairs that share seeds but are otherwise dissimilar); they
	// dominate δw because highly mismatched sequences spread the live
	// window the most (Fig. 6). Mix some in, as ELBA data would have.
	rng := rand.New(rand.NewSource(opt.Seed + 41))
	falseN := len(cmps) / 6
	for i := 0; i < falseN; i++ {
		h := rng.Intn(len(seqs))
		v := rng.Intn(len(seqs))
		if h == v {
			continue
		}
		hs, vs := seqs[h], seqs[v]
		k := 17
		if len(hs) < 4*k || len(vs) < 4*k {
			continue
		}
		sh := k + rng.Intn(len(hs)-2*k)
		sv := k + rng.Intn(len(vs)-2*k)
		synth.PlantSeed(hs, vs, sh, sv, k)
		cmps = append(cmps, workload.Comparison{
			H: h, V: v, SeedH: sh, SeedV: sv, SeedLen: k,
		})
	}
	d, err := workload.Pack(base.Name, seqs, cmps, false)
	if err != nil {
		return err
	}

	// δ is governed by the longest extension in the dataset.
	maxDelta := 0
	for _, c := range d.Comparisons {
		lh, lv, rh, rv := d.ExtensionLens(c)
		if m := min(lh, lv); m > maxDelta {
			maxDelta = m
		}
		if m := min(rh, rv); m > maxDelta {
			maxDelta = m
		}
	}

	tab := metrics.NewTable("§6.1 — δw on realistic data and memory savings",
		"X", "δw", "δb chosen", "standard 3δ B", "restricted 2δb B", "saving", "verified exact")
	for _, x := range []int{10, 15, 30} {
		dw := maxBandOver(d, x)
		deltaB := roundUp(dw+dw/4, 32)
		std := 3 * (maxDelta + 1) * 4
		rst := 2 * deltaB * 4
		// Verify exactness: restricted at δb must reproduce the
		// unrestricted scores on a sample.
		exact := verifyRestricted(d, x, deltaB, 40)
		tab.AddRow(x, dw, deltaB, std, rst,
			metrics.Percent(100*(1-float64(rst)/float64(std))), exact)
	}
	tab.AddNote("paper: δw = {176, 339, 656} for X = {10, 15, 30} on E. coli; 98.2%% saving at X=15")

	// The 25 kb headline (§1, §3): footprint ratio for the longest reads
	// the paper targets, using the most conservative δb measured (X=30,
	// as the paper's 656 → δb≈680 does).
	dw30 := maxBandOver(d, 30)
	deltaB := roundUp(dw30+dw30/4, 32)
	ratio := float64(3*25001*4) / float64(2*deltaB*4)
	tab.AddNote("25 kb extension footprint at δb=%d: 3δ/2δb = %.1f× (paper: up to 55×)", deltaB, ratio)
	tab.Render(opt.W)
	return nil
}

// maxBandOver measures δw = max live-band width across the dataset.
func maxBandOver(d *workload.Dataset, x int) int {
	dw := 0
	var ws core.Workspace
	p := baselines.SeqAnParams(x)
	for _, c := range d.Comparisons {
		r, err := ws.ExtendSeed(d.Seq(c.H), d.Seq(c.V),
			core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, p)
		if err != nil {
			continue
		}
		if r.Stats.MaxLiveBand > dw {
			dw = r.Stats.MaxLiveBand
		}
	}
	return dw
}

func verifyRestricted(d *workload.Dataset, x, deltaB, sample int) bool {
	var ws core.Workspace
	std := baselines.SeqAnParams(x)
	rst := std
	rst.Algo = core.AlgoRestricted2
	rst.DeltaB = deltaB
	for i, c := range d.Comparisons {
		if i >= sample {
			break
		}
		seed := core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}
		a, err := ws.ExtendSeed(d.Seq(c.H), d.Seq(c.V), seed, std)
		if err != nil {
			return false
		}
		b, err := ws.ExtendSeed(d.Seq(c.H), d.Seq(c.V), seed, rst)
		if err != nil {
			return false
		}
		if a.Score != b.Score {
			return false
		}
	}
	return true
}
