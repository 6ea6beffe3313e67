package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/scoring"
)

func randProtein(rng *rand.Rand, n int) []byte {
	const sym = "ARNDCQEGHILKMFPSTWYV"
	s := make([]byte, n)
	for i := range s {
		s[i] = sym[rng.Intn(len(sym))]
	}
	return s
}

func mutateProtein(rng *rand.Rand, s []byte, rate float64) []byte {
	const sym = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, 0, len(s)+8)
	for _, c := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0:
				out = append(out, sym[rng.Intn(len(sym))])
			case 1:
				out = append(out, sym[rng.Intn(len(sym))], c)
			case 2:
			}
		} else {
			out = append(out, c)
		}
	}
	return out
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[len(b)-1-i]
	}
	return out
}

// TestOptimizedVariantsMatchReference is the fuzz-style equivalence
// property for the int32 kernels: on random DNA and protein pairs, under
// forward AND reversed views, every optimized variant must reproduce the
// oracle exactly — Score, EndH/EndV, Stats.Cells and MaxLiveBand. (The
// oracle runs on the views' symbols in view order; a separate check below
// pins reversed views to materialised reversed sequences.)
func TestOptimizedVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		protein := trial%3 == 2
		var hs, vs []byte
		var p Params
		if protein {
			hs = randProtein(rng, 1+rng.Intn(150))
			vs = mutateProtein(rng, hs, []float64{0, 0.1, 0.3, 0.8}[trial%4])
			p = Params{Scorer: scoring.Blosum62, Gap: -2, X: []int{0, 2, 7, 20, 60, 1 << 18}[trial%6]}
		} else {
			hs = randDNA(rng, 1+rng.Intn(150))
			vs = mutate(rng, hs, []float64{0, 0.05, 0.15, 0.45, 0.9}[trial%5])
			p = Params{Scorer: scoring.DNADefault, Gap: -1, X: []int{0, 1, 5, 12, 30, 1 << 18}[trial%6]}
		}
		if trial%11 == 0 {
			vs = randDNA(rng, 1+rng.Intn(150)) // unrelated pair
		}
		hv, vv := trialViews(trial, hs, vs)

		ref := oracleResult(hv, vv, p)
		for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
			pp := p
			pp.Algo = algo
			got := Align(hv, vv, pp)
			if got.Score != ref.Score || got.EndH != ref.EndH || got.EndV != ref.EndV {
				t.Fatalf("trial %d: %v %+v != oracle %+v (h=%s v=%s x=%d)",
					trial, algo, got, ref, hs, vs, p.X)
			}
			if got.Stats.Cells != ref.Stats.Cells {
				t.Fatalf("trial %d: %v cells %d != oracle %d", trial, algo, got.Stats.Cells, ref.Stats.Cells)
			}
			if got.Stats.MaxLiveBand != ref.Stats.MaxLiveBand {
				t.Fatalf("trial %d: %v band %d != oracle %d", trial, algo, got.Stats.MaxLiveBand, ref.Stats.MaxLiveBand)
			}
		}
	}
}

// trialViews views hs and vs in the directions trial picks: both forward,
// both reversed, or mixed (no staged operand copy, or two).
func trialViews(trial int, hs, vs []byte) (View, View) {
	switch trial % 4 {
	case 0:
		return NewView(hs), NewView(vs)
	case 1:
		return NewReversedView(hs), NewReversedView(vs)
	case 2:
		return NewView(hs), NewReversedView(vs)
	}
	return NewReversedView(hs), NewView(vs)
}

// TestAffineZeroOpenMatchesReference pins the affine kernel to the
// linear-gap oracle in the regime where the two recurrences coincide:
// with GapOpen = 0, E and F reduce to plain gap extensions of H, and a
// channel survives pruning exactly when the cell's H does — so scores,
// end points, cell counts and live bands must all match the oracle.
func TestAffineZeroOpenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		hs := randDNA(rng, 1+rng.Intn(150))
		vs := mutate(rng, hs, []float64{0, 0.1, 0.3, 0.8}[trial%4])
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: []int{0, 3, 9, 25, 1 << 18}[trial%5]}
		hv, vv := trialViews(trial, hs, vs)
		ref := oracleResult(hv, vv, p)
		pp := p
		pp.Algo = AlgoAffine // GapOpen stays 0
		got := Align(hv, vv, pp)
		if got.Score != ref.Score || got.EndH != ref.EndH || got.EndV != ref.EndV {
			t.Fatalf("trial %d: affine(open=0) %+v != oracle %+v (h=%s v=%s x=%d)",
				trial, got, ref, hs, vs, p.X)
		}
		if got.Stats.Cells != ref.Stats.Cells || got.Stats.MaxLiveBand != ref.Stats.MaxLiveBand {
			t.Fatalf("trial %d: affine(open=0) trace (%d,%d) != oracle (%d,%d)",
				trial, got.Stats.Cells, got.Stats.MaxLiveBand, ref.Stats.Cells, ref.Stats.MaxLiveBand)
		}
	}
}

// TestSimpleScorersMatchReference is the sweep-level check behind the
// vector row's compare form (row_amd64.s computes a Simple scorer's
// similarity instead of loading it): both score layouts and the recording
// sweep, under DNADefault and a non-default simple(+2/−3), over reads that
// contain the wildcard 'N' and lowercase, through forward, reversed and
// mixed views. Each Result equals the oracle's in every field but the
// layout-defined WorkBytes; each recording's Trace equals the naive
// replay's (oracle_test.go) and its CIGAR re-prices to the score. Under
// -tags purego the same test pins the Go loop.
func TestSimpleScorersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	var ws Workspace
	var or replayOracle
	for trial := 0; trial < 240; trial++ {
		hs := randDNA(rng, 1+rng.Intn(300))
		vs := mutate(rng, hs, []float64{0.02, 0.1, 0.25}[trial%3])
		sprinkleWild(rng, hs)
		sprinkleWild(rng, vs)
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: []int{3, 10, 25, 60}[trial%4]}
		if trial%2 == 1 {
			p.Scorer, p.Gap = scoring.NewSimple(2, -3), -2
		}
		hv, vv := View{hs, trial%8 >= 4}, View{vs, trial%8 >= 4}
		if trial%8 == 7 {
			hv.rev = false // mixed directions: both operands staged
		}
		ref := oracleResult(hv, vv, p)
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3} {
			label := fmt.Sprintf("trial %d %v %v rev=%v/%v", trial, p.Scorer, algo, hv.rev, vv.rev)
			pp := p
			pp.Algo = algo
			got := ws.swept(hv, vv, pp)
			rec, tr, err := ws.record(hv, vv, pp, !hv.rev)
			if err != nil {
				t.Fatalf("%s: record: %v", label, err)
			}
			got.Stats.WorkBytes, rec.Stats.WorkBytes = ref.Stats.WorkBytes, ref.Stats.WorkBytes
			if got != ref {
				t.Fatalf("%s: score sweep %+v != oracle %+v (h=%s v=%s)", label, got, ref, hs, vs)
			}
			if rec != ref {
				t.Fatalf("%s: recording sweep %+v != oracle %+v (h=%s v=%s)", label, rec, ref, hs, vs)
			}
			want, err := or.extension(hv, vv, pp, !hv.rev)
			if err != nil {
				t.Fatalf("%s: oracle replay: %v", label, err)
			}
			checkTraceMatchesOracle(t, label, tr, want)
			if hv.rev != vv.rev {
				continue // a CIGAR is only meaningful when both views run the same way
			}
			fh, fv := hs[:tr.EndH], vs[:tr.EndV]
			if hv.rev {
				fh, fv = hs[len(hs)-tr.EndH:], vs[len(vs)-tr.EndV:]
			}
			if recon, err := alignment.ScoreOf(fh, fv, tr.Cigar, p.Scorer, p.Gap, 0); err != nil || recon != ref.Score {
				t.Fatalf("%s: cigar %q re-prices to %d (%v), want %d", label, tr.Cigar, recon, err, ref.Score)
			}
		}
	}
}

// TestReversedViewsMatchMaterialised pins the operand staging: running
// any variant on reversed views must equal running it on
// materialised reversed byte slices, including the full execution trace.
func TestReversedViewsMatchMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 200; trial++ {
		hs := randDNA(rng, 1+rng.Intn(200))
		vs := mutate(rng, hs, 0.2)
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
			p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, Algo: algo}
			if algo == AlgoAffine {
				p.Scorer = scoring.NewSimple(2, -4)
				p.Gap = -2
				p.GapOpen = -4
				p.X = 20
			}
			if algo == AlgoRestricted2 && trial%2 == 0 {
				p.DeltaB = 8 // exercise the clamped path too
			}
			rev := Align(NewReversedView(hs), NewReversedView(vs), p)
			mat := Align(NewView(reversed(hs)), NewView(reversed(vs)), p)
			if rev.Score != mat.Score || rev.EndH != mat.EndH || rev.EndV != mat.EndV || rev.Stats != mat.Stats {
				t.Fatalf("trial %d %v: reversed view %+v != materialised %+v", trial, algo, rev, mat)
			}
		}
	}
}

// heldFootprint counts the score buffers a lane has allocated, checks
// each holds exactly cells window cells plus the guards, and returns the
// bytes of window cells held.
func heldFootprint(t *testing.T, label string, b *scoreBufs, cells int) (bufs, bytes int) {
	t.Helper()
	for _, buf := range [][]int32{b.b0, b.b1, b.b2, b.e0, b.e1, b.f0, b.f1} {
		if buf == nil {
			continue
		}
		bufs++
		if len(buf) != cells+2*bufPad {
			t.Errorf("%s: buffer holds %d cells, want %d window cells + %d guards", label, len(buf), cells, 2*bufPad)
		}
		bytes += (len(buf) - 2*bufPad) * int(unsafe.Sizeof(buf[0]))
	}
	return bufs, bytes
}

// TestWorkBytesMatchesBufferFootprint closes the WorkBytes honesty gap
// and keeps Algorithm 1 literal: on a fresh Workspace a Restricted2 run
// allocates exactly two score buffers of δb cells (the third stays nil —
// antidiagonal d really overwrites d−2 in place), a Standard3 run three
// of δ, an Affine run seven of δ; and the modeled footprint counts the
// window cells those buffers actually hold, at 4-byte scores (§3). A
// recording holds
// three buffers in either layout and reports the score sweep's WorkBytes.
func TestWorkBytesMatchesBufferFootprint(t *testing.T) {
	h := []byte("ACGTACGTACGTACGT")
	v := []byte("ACGTACGTACGTACGT")
	delta := min(len(h), len(v)) + 1
	for _, tc := range []struct {
		algo   Algo
		deltaB int
		bufs   int
		cells  int
	}{
		{AlgoRestricted2, 0, 2, delta},
		{AlgoRestricted2, 4, 2, 4},
		{AlgoStandard3, 0, 3, delta},
		{AlgoStandard3, 4, 3, delta}, // Standard3 ignores δb
		{AlgoAffine, 0, 7, delta},
	} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -2, X: 10, DeltaB: tc.deltaB, Algo: tc.algo}
		label := fmt.Sprintf("%v/δb=%d", tc.algo, tc.deltaB)
		var w Workspace
		r := w.swept(NewView(h), NewView(v), p)
		ran, held := heldFootprint(t, label, &w.wide, tc.cells)
		if ran != tc.bufs {
			t.Errorf("%s: %d score buffers allocated, want %d", label, ran, tc.bufs)
		}
		if want := tc.bufs * tc.cells * scoreBytes; r.Stats.WorkBytes != want {
			t.Errorf("%s: WorkBytes = %d, want %d (%d buffers × %d cells × %d B)",
				label, r.Stats.WorkBytes, want, tc.bufs, tc.cells, scoreBytes)
		}
		if held != r.Stats.WorkBytes {
			t.Errorf("%s: buffers hold %d window cells, WorkBytes says %d B at %d B a cell",
				label, held/scoreBytes, r.Stats.WorkBytes, scoreBytes)
		}
	}

	// A recording (fusedLinear) holds three buffers of the capacity
	// in either layout — the rotation sweepLinearVec's recording kind is
	// bound to, on every GOARCH, so that a Go loop recording in place
	// fails here and not only as a crash of the assembly — and reports
	// the score sweep's WorkBytes.
	for _, tc := range []struct {
		algo   Algo
		deltaB int
		cells  int
	}{
		{AlgoRestricted2, 0, delta},
		{AlgoRestricted2, 4, 4},
		{AlgoStandard3, 0, delta},
	} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: tc.deltaB, Algo: tc.algo}
		label := fmt.Sprintf("record/%v/δb=%d", tc.algo, tc.deltaB)
		var w Workspace
		r, _, err := w.fusedLinear(NewView(h), NewView(v), p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if bufs, _ := heldFootprint(t, label, &w.wide, tc.cells); bufs != 3 {
			t.Errorf("%s: %d buffers allocated, want 3", label, bufs)
		}
		var score Workspace
		if want := score.swept(NewView(h), NewView(v), p).Stats.WorkBytes; r.Stats.WorkBytes != want {
			t.Errorf("%s: WorkBytes = %d, the score sweep's is %d", label, r.Stats.WorkBytes, want)
		}
	}
}

// TestExtendSeedSteadyStateAllocs: a warm workspace must run whole seed
// extensions without allocating — the property that lets one workspace
// per simulated IPU thread run millions of alignments.
func TestExtendSeedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	h := randDNA(rng, 2000)
	v := mutate(rng, h, 0.15)
	if len(v) < 1200 {
		t.Fatal("mutation shrank sequence too much")
	}
	s := Seed{H: 600, V: 600, Len: 17}
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256, Algo: algo}
		if algo == AlgoAffine {
			p.GapOpen = -4
		}
		var w Workspace
		if _, err := w.ExtendSeed(h, v, s, p); err != nil { // warm the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := w.ExtendSeed(h, v, s, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state ExtendSeed allocates %.1f objects/op, want 0", algo, allocs)
		}
	}
}
