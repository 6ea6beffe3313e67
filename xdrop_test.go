package xdropipu_test

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestXDropProperties runs checkXDrop on every distinct comparison of the
// lattice corpora and on seeded random DNA and BLOSUM62 pairs.
func TestXDropProperties(t *testing.T) {
	for _, protein := range []bool{false, true} {
		c := newLatticeCorpus(t, protein)
		for _, cmp := range c.d.Comparisons[:c.unique] {
			checkXDrop(t, c.d.Seq(cmp.H), c.d.Seq(cmp.V), core.Seed{H: cmp.SeedH, V: cmp.SeedV, Len: cmp.SeedLen}, c.params)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 30 {
		h, v, s, p := xdropCase(rng.Int63(), uint16(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()),
			uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), rng.Intn(2) == 0)
		checkXDrop(t, h, v, s, p)
	}
}

// FuzzXDropOracle runs checkXDrop on fuzzed pairs: length, divergence,
// alphabet, X, δb, gap penalty and kernel tier.
func FuzzXDropOracle(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(10), uint8(15), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint16(250), uint8(30), uint8(40), uint8(9), uint8(1), uint8(1), false)
	f.Add(int64(3), uint16(200), uint8(15), uint8(49), uint8(0), uint8(1), uint8(2), true)
	f.Add(int64(4), uint16(120), uint8(35), uint8(3), uint8(4), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, rate, x, deltaB, gap, tier uint8, protein bool) {
		h, v, s, p := xdropCase(seed, n, rate, x, deltaB, gap, tier, protein)
		checkXDrop(t, h, v, s, p)
	})
}

// xdropCase builds a pair and its parameters from fuzz inputs: h random, v
// h mutated at up to 40 % divergence, an exact seed planted near
// the middle; +1/−1 DNA or BLOSUM62, gap −1…−4, X 0…255, δb 0…255.
func xdropCase(seed int64, n uint16, rate, x, deltaB, gap, tier uint8, protein bool) ([]byte, []byte, core.Seed, core.Params) {
	rng := rand.New(rand.NewSource(seed))
	gen, prof, k := synth.RandDNA, synth.UniformDNA(float64(rate%41)/100), 11
	p := core.Params{Scorer: scoring.DNADefault}
	if protein {
		gen, k, p.Scorer = synth.RandProtein, 3, scoring.Blosum62
		prof.Protein = true
	}
	h := gen(rng, k+int(n%400))
	v := append(prof.Apply(rng, h), gen(rng, k)...)
	s := core.Seed{H: rng.Intn(len(h) - k + 1), Len: k}
	s.V = min(s.H, len(v)-k)
	synth.PlantSeed(h, v, s.H, s.V, k)
	p.Gap, p.X, p.DeltaB, p.Tier = -1-int(gap%4), int(x), int(deltaB), core.Tier(tier%3)
	return h, v, s, p
}

// checkXDrop holds core's seed extension to the oracle and to the
// properties X-Drop has without one:
//
//   - Standard3 equals the oracle; Restricted2 does whenever its δb window
//     never clamped.
//   - The score is at most the unpruned (X = ∞) oracle's, and equal to it
//     once X is large enough to drop nothing.
//   - Swapping h and v keeps the score; where each extension's best cell
//     is unique and one optimal path reaches it (the oracle's !tied) it
//     also swaps the aligned region and the CIGAR's I and D counts.
func checkXDrop(t *testing.T, h, v []byte, s core.Seed, p core.Params) {
	t.Helper()
	tab := p.Scorer.Table()
	want := oracle.Seed(h, v, s.H, s.V, s.Len, tab, p.Gap, p.X)
	for _, algo := range []core.Algo{core.AlgoStandard3, core.AlgoRestricted2} {
		q := p
		q.Algo = algo
		got, err := core.ExtendSeed(h, v, s, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Clamped && algo == core.AlgoRestricted2 {
			continue
		}
		g := oracle.Alignment{Score: got.Score, Left: got.LeftScore, Right: got.RightScore,
			BegH: got.BegH, BegV: got.BegV, EndH: got.EndH, EndV: got.EndV, Tied: want.Tied}
		if g != want {
			t.Fatalf("%v %+v: core %+v, oracle %+v", algo, q, g, want)
		}
	}

	inf := oracle.Seed(h, v, s.H, s.V, s.Len, tab, p.Gap, oracle.Unpruned)
	full := p
	full.Algo, full.X = core.AlgoStandard3, 1<<24
	got, err := core.ExtendSeed(h, v, s, full)
	if err != nil {
		t.Fatal(err)
	}
	if want.Score > inf.Score || got.Score != inf.Score {
		t.Fatalf("X = %d scores %d, X = 2^24 %d, unpruned oracle %d", p.X, want.Score, got.Score, inf.Score)
	}

	var ws core.Workspace
	p.Algo = core.AlgoStandard3
	_, a, err := ws.TracebackSeed(h, v, s, p)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ws.TracebackSeed(v, h, core.Seed{H: s.V, V: s.H, Len: s.Len}, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Fatalf("swapping h and v changed the score: %d → %d", a.Score, b.Score)
	}
	ai, ad := indels(t, a.Cigar)
	bi, bd := indels(t, b.Cigar)
	if !want.Tied && (a.BegH != b.BegV || a.BegV != b.BegH || a.EndH != b.EndV || a.EndV != b.EndH || ai != bd || ad != bi) {
		t.Fatalf("swap of a unique best: %+v (I %d, D %d) → %+v (I %d, D %d)", a, ai, ad, b, bi, bd)
	}
}

// indels counts a CIGAR's I and D columns.
func indels(t *testing.T, c alignment.Cigar) (ins, del int) {
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		switch r.Op {
		case alignment.OpIns:
			ins += r.Len
		case alignment.OpDel:
			del += r.Len
		}
	}
	return ins, del
}
