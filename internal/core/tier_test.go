package core

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// stripTierTrace zeroes the fields that legitimately differ between
// tiers: the modeled buffer footprint (the narrow tier's point) and the
// tier markers themselves. Everything else must be bit-identical.
func stripTierTrace(r Result) Result {
	r.Stats.WorkBytes = 0
	r.Stats.Narrow = false
	r.Stats.Promoted = false
	return r
}

// TestNarrowMatchesWide is the tier-equivalence property: on random DNA
// and protein pairs, under every view-direction combination and every
// variant, a TierNarrow run must reproduce the TierWide Result exactly —
// Score, EndH/EndV and the full Stats trace (modulo WorkBytes and the
// tier markers).
func TestNarrowMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	var ww, nw Workspace
	for trial := 0; trial < 500; trial++ {
		protein := trial%3 == 2
		var hs, vs []byte
		var p Params
		if protein {
			hs = randProtein(rng, 1+rng.Intn(200))
			vs = mutateProtein(rng, hs, []float64{0, 0.1, 0.3, 0.8}[trial%4])
			p = Params{Scorer: scoring.Blosum62, Gap: -2, GapOpen: -4, X: []int{0, 2, 7, 20, 60, 4000}[trial%6]}
		} else {
			hs = randDNA(rng, 1+rng.Intn(200))
			vs = mutate(rng, hs, []float64{0, 0.05, 0.15, 0.45, 0.9}[trial%5])
			p = Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -3, X: []int{0, 1, 5, 12, 30, 4095}[trial%6]}
		}
		if trial%11 == 0 {
			vs = randDNA(rng, 1+rng.Intn(200)) // unrelated pair
		}
		p.DeltaB = []int{0, 0, 8, 32}[trial%4]
		var hv, vv View
		switch trial % 4 {
		case 0:
			hv, vv = NewView(hs), NewView(vs)
		case 1:
			hv, vv = NewReversedView(hs), NewReversedView(vs)
		case 2: // mixed directions: the generic cursor fallback loops
			hv, vv = NewView(hs), NewReversedView(vs)
		default:
			hv, vv = NewReversedView(hs), NewView(vs)
		}

		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			pw, pn := p, p
			pw.Algo, pn.Algo = algo, algo
			pw.Tier, pn.Tier = TierWide, TierNarrow
			wide := ww.aligned(hv, vv, pw)
			narrow := nw.aligned(hv, vv, pn)
			if !narrow.Stats.Narrow || narrow.Stats.Promoted {
				t.Fatalf("trial %d %v: expected a clean narrow run, got narrow=%v promoted=%v",
					trial, algo, narrow.Stats.Narrow, narrow.Stats.Promoted)
			}
			if stripTierTrace(narrow) != stripTierTrace(wide) {
				t.Fatalf("trial %d %v: narrow %+v != wide %+v (h=%q v=%q p=%+v)",
					trial, algo, narrow, wide, hs, vs, p)
			}
		}
	}
}

// TestNarrowWorkBytesHalved pins the tier's accounting: the narrow trace
// must model exactly half the wide tier's working-buffer bytes.
func TestNarrowWorkBytesHalved(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	h := randDNA(rng, 300)
	v := mutate(rng, h, 0.1)
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -2, X: 20, DeltaB: 64, Algo: algo}
		wide := Align(NewView(h), NewView(v), p)
		p.Tier = TierNarrow
		narrow := Align(NewView(h), NewView(v), p)
		if narrow.Stats.WorkBytes*2 != wide.Stats.WorkBytes {
			t.Errorf("%v: narrow WorkBytes %d, wide %d (want exactly half)",
				algo, narrow.Stats.WorkBytes, wide.Stats.WorkBytes)
		}
	}
}

// TestNarrowIneligibleFallsBackWide: parameters outside the narrow
// eligibility envelope must run wide even under TierNarrow, silently.
func TestNarrowIneligibleFallsBackWide(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	h := randDNA(rng, 100)
	v := mutate(rng, h, 0.2)
	for _, p := range []Params{
		{Scorer: scoring.DNADefault, Gap: -1, X: maxNarrowX + 1, Tier: TierNarrow},
		{Scorer: scoring.DNADefault, Gap: -(maxNarrowGap + 1), X: 10, Tier: TierNarrow},
		{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -(maxNarrowGap + 1), X: 10, Algo: AlgoAffine, Tier: TierNarrow},
	} {
		res := Align(NewView(h), NewView(v), p)
		if res.Stats.Narrow || res.Stats.Promoted {
			t.Errorf("params %+v: ineligible extension ran narrow (narrow=%v promoted=%v)",
				p, res.Stats.Narrow, res.Stats.Promoted)
		}
		pw := p
		pw.Tier = TierWide
		if res != Align(NewView(h), NewView(v), pw) {
			t.Errorf("params %+v: ineligible fallback differs from explicit wide", p)
		}
	}
}

// TestNarrowSaturationPromotes forces int16 saturation mid-extension: a
// long identical pair under a +9 match accumulates past satGuard16, the
// runtime guard fires, and the extension must transparently re-run wide
// with a bit-identical Result and the Promoted marker set.
func TestNarrowSaturationPromotes(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	scorer := scoring.NewSimple(9, -9)
	h := randDNA(rng, 4200) // 4200·9 = 37800 > satGuard16: saturates ~nine tenths in
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
		p := Params{Scorer: scorer, Gap: -3, GapOpen: -5, X: 50, Algo: algo}
		wide := Align(NewView(h), NewView(h), p)
		p.Tier = TierNarrow
		prom := Align(NewView(h), NewView(h), p)
		if !prom.Stats.Promoted || prom.Stats.Narrow {
			t.Fatalf("%v: expected promotion, got narrow=%v promoted=%v",
				algo, prom.Stats.Narrow, prom.Stats.Promoted)
		}
		if stripTierTrace(prom) != stripTierTrace(wide) {
			t.Fatalf("%v: promoted %+v != wide %+v", algo, prom, wide)
		}
		// A promoted run's stats are the wide re-run's, so even
		// WorkBytes must match the wide trace.
		if prom.Stats.WorkBytes != wide.Stats.WorkBytes {
			t.Fatalf("%v: promoted WorkBytes %d != wide %d", algo, prom.Stats.WorkBytes, wide.Stats.WorkBytes)
		}
	}
}

// TestNarrowSaturationBoundary walks lengths across the exact saturation
// threshold: below it narrow completes, above it the guard fires — and in
// every case the Result equals the wide tier's. Two identical pairs pin the
// threshold itself: one scoring exactly satGuard16 completes narrow, one
// scoring satGuard16+1 promotes.
func TestNarrowSaturationBoundary(t *testing.T) {
	type boundaryCase struct{ match, n int }
	// satGuard16/127 ≈ 253.97: lengths straddle the guard at the steepest
	// int8 slope.
	var cases []boundaryCase
	for _, n := range []int{250, 253, 254, 255, 258, 400} {
		cases = append(cases, boundaryCase{127, n})
	}
	cases = append(cases,
		boundaryCase{5, satGuard16 / 5},       // 6 451 bases, score 32 255
		boundaryCase{2, (satGuard16 + 1) / 2}, // 16 128 bases, score 32 256
	)
	rng := rand.New(rand.NewSource(1607))
	for _, tc := range cases {
		scorer := scoring.NewSimple(tc.match, -tc.match)
		var h []byte
		if tc.match == 127 {
			h = make([]byte, tc.n)
			for i := range h {
				h[i] = "ACGT"[i%4]
			}
		} else {
			h = randDNA(rng, tc.n) // aperiodic, so the band stays narrow
		}
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			p := Params{Scorer: scorer, Gap: -1, GapOpen: -1, X: 100, Algo: algo}
			wide := Align(NewView(h), NewView(h), p)
			if want := tc.n * tc.match; wide.Score != want {
				t.Fatalf("n=%d ±%d %v: wide score %d, want %d", tc.n, tc.match, algo, wide.Score, want)
			}
			p.Tier = TierNarrow
			got := Align(NewView(h), NewView(h), p)
			if stripTierTrace(got) != stripTierTrace(wide) {
				t.Fatalf("n=%d ±%d %v: narrow-tier %+v != wide %+v", tc.n, tc.match, algo, got, wide)
			}
			wantPromoted := wide.Score > satGuard16
			if got.Stats.Promoted != wantPromoted || got.Stats.Narrow == wantPromoted {
				t.Errorf("n=%d ±%d %v (score %d): narrow=%v promoted=%v, want promoted=%v",
					tc.n, tc.match, algo, wide.Score, got.Stats.Narrow, got.Stats.Promoted, wantPromoted)
			}
		}
	}
}

// TestAutoTierNeverPromotes: TierAuto only admits narrow runs under the
// headroom proof, so promotion must be impossible — long saturating pairs
// run wide outright, short ones run narrow.
func TestAutoTierNeverPromotes(t *testing.T) {
	rng := rand.New(rand.NewSource(1605))
	scorer := scoring.NewSimple(9, -9)
	for _, n := range []int{100, 1000, 3583, 3584, 8000} {
		h := randDNA(rng, n)
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			p := Params{Scorer: scorer, Gap: -3, GapOpen: -5, X: 50, Algo: algo, Tier: TierAuto}
			res := Align(NewView(h), NewView(h), p)
			if res.Stats.Promoted {
				t.Fatalf("n=%d %v: TierAuto promoted", n, algo)
			}
			wantNarrow := NarrowHeadroom(n, n, scorer.MaxScore())
			if res.Stats.Narrow != wantNarrow {
				t.Errorf("n=%d %v: narrow=%v, want %v", n, algo, res.Stats.Narrow, wantNarrow)
			}
			pw := p
			pw.Tier = TierWide
			if stripTierTrace(res) != stripTierTrace(Align(NewView(h), NewView(h), pw)) {
				t.Fatalf("n=%d %v: TierAuto result differs from wide", n, algo)
			}
		}
	}
}

// TestExtendSeedNarrowFlags: the merged seed-extension trace is narrow
// only when both sides ran narrow, and promoted when either side did.
func TestExtendSeedNarrowFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	h := randDNA(rng, 400)
	v := append(append([]byte{}, h[:200]...), mutate(rng, h[200:], 0.1)...)
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 20, Tier: TierNarrow}
	res, err := ExtendSeed(h, v, Seed{H: 200, V: 200, Len: 12}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Narrow || res.Stats.Promoted {
		t.Errorf("both-sides-narrow seed: narrow=%v promoted=%v", res.Stats.Narrow, res.Stats.Promoted)
	}
	pw := p
	pw.Tier = TierWide
	want, err := ExtendSeed(h, v, Seed{H: 200, V: 200, Len: 12}, pw)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = Stats{}
	want.Stats = Stats{}
	if res != want {
		t.Errorf("narrow seed result %+v != wide %+v", res, want)
	}
}

// FuzzNarrowVsWide fuzzes the tier-equivalence property over arbitrary
// byte sequences and parameters.
func FuzzNarrowVsWide(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTTCGTAC"), 10, 1, 2, uint8(0))
	f.Add([]byte("GATTACA"), []byte("GATTTACA"), 5, 2, 0, uint8(1))
	f.Add([]byte(""), []byte("A"), 0, 1, 1, uint8(2))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAAAAA"), 4095, 1, 3, uint8(0))
	f.Fuzz(func(t *testing.T, hs, vs []byte, x, gap, gapOpen int, sel uint8) {
		if len(hs) > 2000 || len(vs) > 2000 {
			return
		}
		if x < 0 || x > maxNarrowX {
			x = maxNarrowX
		}
		gap = 1 + gap%maxNarrowGap
		if gap < 0 {
			gap = -gap
		}
		gapOpen = gapOpen % maxNarrowGap
		if gapOpen < 0 {
			gapOpen = -gapOpen
		}
		algo := []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine}[sel%3]
		p := Params{Scorer: scoring.DNADefault, Gap: -gap, GapOpen: -gapOpen, X: x, Algo: algo}
		if sel%2 == 1 {
			p.DeltaB = 16
		}
		hv, vv := NewView(hs), NewView(vs)
		if sel%5 == 3 {
			hv = NewReversedView(hs)
		}
		wide := Align(hv, vv, p)
		p.Tier = TierNarrow
		narrow := Align(hv, vv, p)
		if stripTierTrace(narrow) != stripTierTrace(wide) {
			t.Fatalf("narrow %+v != wide %+v (h=%q v=%q p=%+v)", narrow, wide, hs, vs, p)
		}
	})
}
