package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
)

func dnaParams(x int) Params {
	return Params{Scorer: scoring.DNADefault, Gap: -1, X: x}
}

// swept is sweep with its Result returned.
func (w *Workspace) swept(h, v View, p Params) (r Result) {
	w.sweep(h, v, &p, &r)
	return r
}

// seqPair is one extension of a test queue: h against v, both forwards.
type seqPair struct{ h, v []byte }

// queue runs pairs as one ExtendBatch queue under p — the door ipukernel
// scores a tile's sides through, on amd64 sweepBatch's two lanes — and
// returns their Results in order. Every odd pair runs as a Left side over
// reversed copies of its operands, so each queue mixes both directions.
func (w *Workspace) queue(p Params, pairs []seqPair) []Result {
	sides := make([]Side, len(pairs))
	for i, pr := range pairs {
		sides[i] = Side{H: pr.h, V: pr.v}
		if i%2 == 1 {
			sides[i] = Side{H: reversed(pr.h), V: reversed(pr.v), HOff: len(pr.h), VOff: len(pr.v), Left: true}
		}
	}
	out := make([]Result, len(sides))
	w.ExtendBatch(&p, sides, out)
	return out
}

// extendAll is queue on a fresh workspace.
func extendAll(p Params, pairs ...seqPair) []Result { return new(Workspace).queue(p, pairs) }

// withAlgo is p running algo.
func withAlgo(p Params, algo Algo) Params {
	p.Algo = algo
	return p
}

func randDNA(rng *rand.Rand, n int) []byte {
	const sym = "ACGT"
	s := make([]byte, n)
	for i := range s {
		s[i] = sym[rng.Intn(4)]
	}
	return s
}

// sprinkleWild overwrites about one symbol in twelve with the wildcard 'N'
// or a lowercase base: symbols a Simple scorer matches with nothing
// uppercase, and 'N' not even with itself.
func sprinkleWild(rng *rand.Rand, s []byte) {
	for i := range s {
		if rng.Intn(12) == 0 {
			s[i] = "NNacgt"[rng.Intn(6)]
		}
	}
}

// mutate applies substitutions/insertions/deletions at the given rate.
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	const sym = "ACGT"
	out := make([]byte, 0, len(s)+8)
	for _, c := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0: // substitution
				out = append(out, sym[rng.Intn(4)])
			case 1: // insertion
				out = append(out, sym[rng.Intn(4)], c)
			case 2: // deletion
			}
		} else {
			out = append(out, c)
		}
	}
	return out
}

func TestViewAccess(t *testing.T) {
	b := []byte("ACGT")
	f := NewView(b)
	r := NewReversedView(b)
	if f.Len() != 4 || r.Len() != 4 {
		t.Fatal("length mismatch")
	}
	if f.At(0) != 'A' || f.At(3) != 'T' {
		t.Error("forward view broken")
	}
	if r.At(0) != 'T' || r.At(3) != 'A' {
		t.Error("reversed view broken")
	}
}

func TestParamsValidate(t *testing.T) {
	good := dnaParams(10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Scorer: nil, Gap: -1, X: 5},
		{Scorer: scoring.DNADefault, Gap: 0, X: 5},
		{Scorer: scoring.DNADefault, Gap: -1, X: -1},
		{Scorer: scoring.DNADefault, Gap: -1, X: 5, DeltaB: -2},
		{Scorer: scoring.DNADefault, Gap: -1, X: 5, GapOpen: 1},
		{Scorer: scoring.DNADefault, Gap: -1, X: 5, Algo: Algo(2)},
		{Scorer: scoring.DNADefault, Gap: -1, X: 5, Algo: Algo(4)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestIdenticalSequences(t *testing.T) {
	// A perfect match must score len×match and end at the corners.
	for _, n := range []int{1, 2, 10, 100, 777} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := randDNA(rng, n)
		for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
			p := dnaParams(5)
			p.Algo = algo
			r := Align(NewView(s), NewView(s), p)
			if r.Score != n {
				t.Errorf("%v n=%d: score %d, want %d", algo, n, r.Score, n)
			}
			if r.EndH != n || r.EndV != n {
				t.Errorf("%v n=%d: end (%d,%d), want (%d,%d)", algo, n, r.EndH, r.EndV, n, n)
			}
		}
	}
}

func TestEmptySequences(t *testing.T) {
	p := dnaParams(5)
	for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2, AlgoAffine} {
		p.Algo = algo
		r := Align(NewView(nil), NewView(nil), p)
		if r.Score != 0 || r.EndH != 0 || r.EndV != 0 {
			t.Errorf("%v empty/empty: %+v", algo, r)
		}
		r = Align(NewView([]byte("ACGT")), NewView(nil), p)
		if r.Score != 0 {
			t.Errorf("%v seq/empty: score %d, want 0", algo, r.Score)
		}
		r = Align(NewView(nil), NewView([]byte("ACGT")), p)
		if r.Score != 0 {
			t.Errorf("%v empty/seq: score %d, want 0", algo, r.Score)
		}
	}
}

func TestCompletelyMismatched(t *testing.T) {
	// Poly-A vs poly-C: every path scores negative, so the best score is
	// 0 at the origin and the search dies after roughly X antidiagonals.
	h := bytes.Repeat([]byte("A"), 200)
	v := bytes.Repeat([]byte("C"), 200)
	for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
		p := dnaParams(10)
		p.Algo = algo
		r := Align(NewView(h), NewView(v), p)
		if r.Score != 0 {
			t.Errorf("%v: score %d, want 0", algo, r.Score)
		}
		if r.Stats.Antidiagonals > 30 {
			t.Errorf("%v: search should die after ~X antidiagonals, ran %d", algo, r.Stats.Antidiagonals)
		}
	}
}

// TestVariantsAgreeWithOracle is the central correctness property: on
// random mutated pairs, Standard3 and Restricted2 (unbounded δb) must
// reproduce the oracle exactly — score, end point, cells, live band, no
// clamp — run as ExtendBatch queues of 50 sides, one queue per X, and so
// must their seed extensions through ExtendSeed at a random seed: the
// three scores and the aligned region, against oracle.Seed on the raw
// sequences.
func TestVariantsAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := []int{0, 1, 5, 10, 25, 100}
	pairs := make([][]seqPair, len(xs)) // trial i is pairs[i%6][i/6]
	for trial := 0; trial < 300; trial++ {
		h := randDNA(rng, 1+rng.Intn(120))
		v := mutate(rng, h, []float64{0, 0.05, 0.15, 0.4, 0.9}[trial%5])
		if trial%7 == 0 {
			v = randDNA(rng, 1+rng.Intn(120)) // unrelated pair
		}
		pairs[trial%6] = append(pairs[trial%6], seqPair{h, v})
		p := dnaParams(xs[trial%6])
		k := 1 + rng.Intn(min(len(h), len(v)))
		s := Seed{H: rng.Intn(len(h) - k + 1), V: rng.Intn(len(v) - k + 1), Len: k}
		want := oracle.Seed(h, v, s.H, s.V, k, p.Scorer.Table(), p.Gap, p.X)
		for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
			sr, err := ExtendSeed(h, v, s, withAlgo(p, algo))
			if err != nil || sr.Score != want.Score || sr.LeftScore != want.Left || sr.RightScore != want.Right ||
				sr.BegH != want.BegH || sr.BegV != want.BegV || sr.EndH != want.EndH || sr.EndV != want.EndV {
				t.Fatalf("trial %d: %v seed %+v: %+v (%v) != oracle %+v (x=%d h=%s v=%s)", trial, algo, s, sr, err, want, p.X, h, v)
			}
		}
	}
	for xi, x := range xs {
		p := dnaParams(x)
		for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
			for i, got := range extendAll(withAlgo(p, algo), pairs[xi]...) {
				pr := pairs[xi][i]
				got.Stats.WorkBytes = 0 // only a buffer layout defines it
				if ref := oracleResult(NewView(pr.h), NewView(pr.v), p); got != ref {
					t.Fatalf("trial %d: %v %+v != oracle %+v (x=%d h=%s v=%s)", xi+6*i, algo, got, ref, x, pr.h, pr.v)
				}
			}
		}
	}
}

// TestRestrictedWithSufficientBand pins the paper's δb selection claim
// (§6.1) as a property: choosing δb ≥ δw preserves the computation
// exactly. Restricted2 must equal Standard3 in every Result field except
// Stats.WorkBytes (the one thing the layouts are meant to differ in) — in
// both view directions. One sweep body serves both
// layouts, so this holds by construction; the test keeps it that way.
// The bound is δw+1 cells: an antidiagonal's computed window reaches one
// cell past the previous live window before pruning trims it back.
func TestRestrictedWithSufficientBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		hs := randDNA(rng, 80+rng.Intn(80))
		vs := mutate(rng, hs, 0.15)
		for _, rev := range []bool{false, true} {
			h, v := NewView(hs), NewView(vs)
			if rev {
				h, v = NewReversedView(hs), NewReversedView(vs)
			}
			p := dnaParams(10)
			p.Algo = AlgoStandard3
			full := Align(h, v, p)
			p.Algo = AlgoRestricted2
			for _, slack := range []int{1, 2, 17} {
				p.DeltaB = full.Stats.MaxLiveBand + slack
				rst := Align(h, v, p)
				if rst.Stats.WorkBytes >= full.Stats.WorkBytes {
					t.Fatalf("trial %d: restricted2 WorkBytes %d not below standard3's %d",
						trial, rst.Stats.WorkBytes, full.Stats.WorkBytes)
				}
				rst.Stats.WorkBytes = full.Stats.WorkBytes
				if rst != full {
					t.Fatalf("trial %d rev=%v δb=δw+%d diverged:\nrestricted2 %+v\nstandard3   %+v",
						trial, rev, slack, rst, full)
				}
			}
		}
	}
}

// TestRestrictedClampIsLowerBound checks that an undersized δb yields a
// score that never exceeds the unrestricted one and flags the clamp.
func TestRestrictedClampIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pairs := make([]seqPair, 150)
	for i := range pairs {
		h := randDNA(rng, 150)
		pairs[i] = seqPair{h, mutate(rng, h, 0.35)}
	}
	p := dnaParams(30)
	full := extendAll(withAlgo(p, AlgoStandard3), pairs...)
	p.DeltaB = 4
	clamps := 0
	for trial, rst := range extendAll(p, pairs...) {
		if rst.Score > full[trial].Score {
			t.Fatalf("trial %d: clamped score %d exceeds unrestricted %d", trial, rst.Score, full[trial].Score)
		}
		if rst.Stats.MaxLiveBand > 4 {
			t.Fatalf("trial %d: band %d exceeds δb=4", trial, rst.Stats.MaxLiveBand)
		}
		if rst.Stats.Clamped {
			clamps++
		}
	}
	if clamps == 0 {
		t.Fatal("δb=4 at 35% error never clamped; clamp path untested")
	}
}

// TestScoreMonotoneInX: enlarging X can only enlarge the search space and
// therefore never lowers the score; X huge reaches the full-DP optimum.
func TestScoreMonotoneInX(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pairs := make([]seqPair, 100)
	for i := range pairs {
		h := randDNA(rng, 60+rng.Intn(60))
		pairs[i] = seqPair{h, mutate(rng, h, 0.25)}
	}
	prev := make([]Result, len(pairs)) // an extension scores at least 0
	for _, x := range []int{0, 2, 5, 10, 20, 50, 1 << 20} {
		for trial, r := range extendAll(withAlgo(dnaParams(x), AlgoStandard3), pairs...) {
			if r.Score < prev[trial].Score || r.Stats.Cells < prev[trial].Stats.Cells {
				t.Fatalf("trial %d: X=%d lowered the score or the cells: %+v after %+v", trial, x, r, prev[trial])
			}
			prev[trial] = r
		}
	}
	// X=∞ must reach the unpruned semi-global optimum.
	for trial, pr := range pairs {
		if full := oracle.Extend(pr.h, pr.v, scoring.DNADefault.Table(), -1, oracle.Unpruned); prev[trial].Score != full.Score {
			t.Fatalf("trial %d: X=∞ score %d != full DP %d", trial, prev[trial].Score, full.Score)
		}
	}
}

// TestLeftExtensionEqualsReversedRight: the op(·) view transformation must
// be equivalent to materialising reversed sequences, in every Result field.
// Each queue holds every trial's Left side at its offsets, then the Right
// sides over the materialised reversed prefixes, for each variant and for
// Restricted2's clamped path.
func TestLeftExtensionEqualsReversedRight(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const trials = 100
	sides := make([]Side, 2*trials)
	for trial := range trials {
		h := randDNA(rng, 40+rng.Intn(100))
		v := mutate(rng, h, 0.2)
		hOff := rng.Intn(len(h) + 1)
		vOff := rng.Intn(len(v) + 1)
		sides[trial] = Side{H: h, V: v, HOff: hOff, VOff: vOff, Left: true}
		sides[trials+trial] = Side{H: reversed(h[:hOff]), V: reversed(v[:vOff])}
	}
	for _, p := range []Params{dnaParams(8), {Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: 8},
		withAlgo(dnaParams(10), AlgoStandard3), {Scorer: scoring.NewSimple(2, -4), Gap: -2, GapOpen: -4, X: 20, Algo: AlgoAffine}} {
		out := make([]Result, len(sides))
		var w Workspace
		w.ExtendBatch(&p, sides, out)
		for trial, left := range out[:trials] {
			if right := out[trials+trial]; left != right {
				t.Fatalf("trial %d %v δb=%d: left ext %+v != reversed right %+v", trial, p.Algo, p.DeltaB, left, right)
			}
		}
	}
}

func TestExtendSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Construct two sequences sharing an exact 17-mer in the middle.
	k := 17
	seed := randDNA(rng, k)
	hl, hr := randDNA(rng, 200), randDNA(rng, 180)
	h := append(append(append([]byte{}, hl...), seed...), hr...)
	vl := mutate(rng, hl, 0.1)
	vr := mutate(rng, hr, 0.1)
	v := append(append(append([]byte{}, vl...), seed...), vr...)

	p := dnaParams(15)
	s := Seed{H: len(hl), V: len(vl), Len: k}
	r, err := ExtendSeed(h, v, s, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score < k {
		t.Errorf("seed extension score %d below seed score %d", r.Score, k)
	}
	if r.Score != r.LeftScore+k+r.RightScore {
		t.Errorf("score %d != left %d + seed %d + right %d", r.Score, r.LeftScore, k, r.RightScore)
	}
	if r.BegH > s.H || r.EndH < s.H+k || r.BegV > s.V || r.EndV < s.V+k {
		t.Errorf("alignment [%d,%d)x[%d,%d) does not span seed %+v", r.BegH, r.EndH, r.BegV, r.EndV, s)
	}
	if r.BegH < 0 || r.EndH > len(h) || r.BegV < 0 || r.EndV > len(v) {
		t.Errorf("alignment out of bounds: %+v", r)
	}
}

func TestExtendSeedErrors(t *testing.T) {
	h, v := []byte("ACGTACGT"), []byte("ACGTACGT")
	p := dnaParams(5)
	bad := []Seed{
		{H: -1, V: 0, Len: 3},
		{H: 0, V: -1, Len: 3},
		{H: 0, V: 0, Len: 0},
		{H: 6, V: 0, Len: 3},
		{H: 0, V: 7, Len: 2},
	}
	for _, s := range bad {
		if _, err := ExtendSeed(h, v, s, p); err == nil {
			t.Errorf("seed %+v accepted, want error", s)
		}
	}
}

func TestAffineBasics(t *testing.T) {
	p := Params{Scorer: scoring.NewSimple(2, -4), Gap: -1, GapOpen: -4, X: 40, Algo: AlgoAffine}
	s := []byte("ACGTACGTACGTACGTACGT")
	h := []byte("ACGTACGTAAAAAAAAAAACGTACGTGGGG")
	v := append(append([]byte{}, h[:9]...), h[19:]...) // delete 10 symbols
	r := extendAll(p, seqPair{s, s}, seqPair{h, v})
	// Perfect match.
	if r[0].Score != 2*len(s) {
		t.Errorf("affine perfect match: score %d, want %d", r[0].Score, 2*len(s))
	}
	// One long deletion: affine must prefer a single opened gap.
	// 20 matches (score 40) minus open 4 minus 10×extend 10 = 26.
	want := 2*(len(h)-10) - 4 - 10
	if r[1].Score != want {
		t.Errorf("affine long gap: score %d, want %d", r[1].Score, want)
	}
}

func TestAffineLargerSearchSpace(t *testing.T) {
	// The ksw2-style scheme (2/−4, open −4, extend −1) must on average
	// compute more cells than the linear DNA scheme at matched X values,
	// reproducing the §6.2 observation that ksw2's weaker long-gap
	// penalty enlarges the search space.
	rng := rand.New(rand.NewSource(12))
	pairs := make([]seqPair, 40)
	for i := range pairs {
		h := randDNA(rng, 400)
		pairs[i] = seqPair{h, mutate(rng, h, 0.15)}
	}
	ap := Params{Scorer: scoring.NewSimple(2, -4), Gap: -1, GapOpen: -4, X: 30, Algo: AlgoAffine}
	af := extendAll(ap, pairs...)
	var linCells, affCells int64
	for i, r := range extendAll(withAlgo(dnaParams(15), AlgoStandard3), pairs...) {
		linCells += r.Stats.Cells
		affCells += af[i].Stats.Cells
	}
	if affCells <= linCells {
		t.Errorf("affine cells %d not larger than linear cells %d", affCells, linCells)
	}
}

func TestBandedVsXDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randDNA(rng, 300)
	// Insert a long gap so the optimal path leaves a narrow static band
	// (the Fig. 1 scenario).
	v := append(append(append([]byte{}, h[:100]...), randDNA(rng, 60)...), h[100:]...)
	full := oracle.Extend(h, v, scoring.DNADefault.Table(), -1, oracle.Unpruned)
	narrow := Banded(NewView(h), NewView(v), 10, scoring.DNADefault, -1)
	wide := Banded(NewView(h), NewView(v), len(v), scoring.DNADefault, -1)
	if narrow.Score >= full.Score {
		t.Errorf("narrow band should miss the optimum: banded %d vs full %d", narrow.Score, full.Score)
	}
	if wide.Score != full.Score {
		t.Errorf("wide band %d != full %d", wide.Score, full.Score)
	}
	for _, xd := range extendAll(withAlgo(dnaParams(100), AlgoStandard3), seqPair{h, v}, seqPair{h, v}) {
		if xd.Score != full.Score {
			t.Errorf("x-drop (X=100) %d != full %d", xd.Score, full.Score)
		}
	}
}

func TestReferenceMatrixComputedArea(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := randDNA(rng, 60)
	v := mutate(rng, h, 0.1)
	var area []int64
	for _, x := range []int{5, 20, 1 << 20} {
		e := oracle.Extend(h, v, scoring.DNADefault.Table(), -1, x)
		if e.Computed[0] != (oracle.Span{}) || e.Live[0] != (oracle.Span{}) {
			t.Errorf("X=%d: origin antidiagonal computed %v, live %v", x, e.Computed[0], e.Live[0])
		}
		var cells int64
		for _, s := range e.Computed {
			cells += int64(s.Width())
		}
		for _, r := range extendAll(withAlgo(dnaParams(x), AlgoStandard3), seqPair{h, v}, seqPair{h, v}) {
			if cells != r.Stats.Cells {
				t.Errorf("X=%d: oracle computes %d cells, standard3 %d", x, cells, r.Stats.Cells)
			}
		}
		area = append(area, cells)
	}
	if !(area[0] <= area[1] && area[1] <= area[2]) {
		t.Errorf("computed area not monotone in X: %v", area)
	}
}

func TestWorkBytesAccounting(t *testing.T) {
	h := bytes.Repeat([]byte("ACGT"), 100) // 400
	v := bytes.Repeat([]byte("ACGT"), 100)
	pairs := []seqPair{{h, v}, {h[:100], v}}
	p := dnaParams(10)
	for i, std := range extendAll(withAlgo(p, AlgoStandard3), pairs...) {
		if want := 3 * (len(pairs[i].h) + 1) * 4; std.Stats.WorkBytes != want {
			t.Errorf("side %d: standard3 WorkBytes = %d, want %d", i, std.Stats.WorkBytes, want)
		}
	}
	p.DeltaB = 64
	for i, rst := range extendAll(p, pairs...) {
		if rst.Stats.WorkBytes != 2*64*4 {
			t.Errorf("side %d: restricted2 WorkBytes = %d, want %d", i, rst.Stats.WorkBytes, 2*64*4)
		}
	}
	// The 55× headline: 3δ/2δb for a 25 kb sequence at δb=680.
	ratio := float64(3*25001*4) / float64(2*680*4)
	if ratio < 50 || ratio > 60 {
		t.Errorf("memory-reduction ratio %f outside the paper's ~55× regime", ratio)
	}
}

func TestStatsObserveAndAdd(t *testing.T) {
	var acc statAcc
	acc.observe(100, 40)
	acc.observe(200, 80)
	var s Stats
	acc.flush(&s)
	if s.Antidiagonals != 2 || s.Cells != 300 || s.MaxLiveBand != 80 {
		t.Errorf("observe: %+v", s)
	}
	if s.Chunks128 != 1+2 {
		t.Errorf("chunks: %+v", s)
	}
	acc = statAcc{}
	acc.observe(50, 90)
	o := Stats{Clamped: true}
	acc.flush(&o)
	s.add(o)
	if s.Antidiagonals != 3 || s.MaxLiveBand != 90 || !s.Clamped {
		t.Errorf("add: %+v", s)
	}
}

func TestAlgoString(t *testing.T) {
	names := map[Algo]string{
		AlgoRestricted2: "restricted2",
		AlgoStandard3:   "standard3",
		AlgoAffine:      "affine",
		Algo(2):         "Algo(2)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("Algo(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestWorkspaceReuseIsClean(t *testing.T) {
	// Reusing one workspace across queues of different sizes and lengths
	// must give identical results to fresh workspaces.
	rng := rand.New(rand.NewSource(15))
	var w Workspace
	for trial := 0; trial < 60; trial++ {
		pairs := make([]seqPair, 1+rng.Intn(5))
		for i := range pairs {
			h := randDNA(rng, 1+rng.Intn(200))
			pairs[i] = seqPair{h, mutate(rng, h, 0.2)}
		}
		p := dnaParams(12)
		if trial%3 == 1 {
			p.DeltaB = 8
		}
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3} {
			if reused, fresh := w.queue(withAlgo(p, algo), pairs), extendAll(withAlgo(p, algo), pairs...); !slices.Equal(reused, fresh) {
				t.Fatalf("trial %d: %v: workspace reuse diverged:\n%+v\n%+v", trial, algo, reused, fresh)
			}
		}
	}
}
