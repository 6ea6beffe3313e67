package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// checkFusedExtension runs one extension side four ways — score-only,
// the production second pass, fused single-pass, and the naive replay
// oracle (oracle_test.go) — and pins the contract: the fused Result
// bit-matches the score sweep in every field (the kernel accumulates
// fused Stats as if the score sweep ran), and both production Traces —
// fused and second-pass — bit-match the oracle's (score, end points,
// CIGAR, clamp flag and trace-byte accounting), with the CIGAR
// independently re-scoring to the kernel score.
func checkFusedExtension(t *testing.T, h, v []byte, hOff, vOff int, right bool, p Params, label string) {
	t.Helper()
	var ws Workspace
	var or replayOracle
	var want Result
	var oracle, second Trace
	var fr Result
	var ft Trace
	var err error
	if right {
		want = ws.ExtendRight(h, v, hOff, vOff, p)
		if oracle, err = or.right(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: oracle right: %v", label, err)
		}
		if second, err = ws.TracebackRight(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: TracebackRight: %v", label, err)
		}
		fr, ft, err = ws.FusedExtendRight(h, v, hOff, vOff, p)
	} else {
		want = ws.ExtendLeft(h, v, hOff, vOff, p)
		if oracle, err = or.left(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: oracle left: %v", label, err)
		}
		if second, err = ws.TracebackLeft(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: TracebackLeft: %v", label, err)
		}
		fr, ft, err = ws.FusedExtendLeft(h, v, hOff, vOff, p)
	}
	if err != nil {
		t.Fatalf("%s: fused: %v", label, err)
	}
	if fr != want {
		t.Fatalf("%s: fused Result differs from score kernel:\nfused: %+v\nscore: %+v", label, fr, want)
	}
	checkTraceMatchesOracle(t, label+"/fused", ft, oracle)
	checkTraceMatchesOracle(t, label+"/second-pass", second, oracle)
	// Independent oracle: the CIGAR re-scores to the kernel score over
	// the exact aligned spans.
	var fh, fv []byte
	if right {
		fh, fv = h[hOff:hOff+ft.EndH], v[vOff:vOff+ft.EndV]
	} else {
		fh, fv = h[hOff-ft.EndH:hOff], v[vOff-ft.EndV:vOff]
	}
	recon, err := alignment.ScoreOf(fh, fv, ft.Cigar, p.Scorer, p.Gap, p.GapOpen)
	if err != nil {
		t.Fatalf("%s: reconstruction: %v (cigar %q)", label, err, ft.Cigar)
	}
	if recon != want.Score {
		t.Fatalf("%s: reconstructed score %d != kernel %d (cigar %q)", label, recon, want.Score, ft.Cigar)
	}
}

// TestFusedDifferentialOracle is the seeded-fuzz oracle: score-only vs
// second pass vs fused vs the naive replay across every linear-gap
// variant, tier, size class and mutation rate, on both extension sides.
func TestFusedDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for name, base := range tbVariants() {
		for _, tier := range []Tier{TierWide, TierNarrow, TierAuto} {
			p := base
			p.Tier = tier
			for _, size := range []int{40, 200, 700} {
				for _, rate := range []float64{0.03, 0.25} {
					for it := 0; it < 3; it++ {
						h := randDNA(rng, size)
						v := mutate(rng, h, rate)
						k := 9
						if k > len(v) {
							k = len(v)
						}
						sH := rng.Intn(len(h) - k + 1)
						sV := rng.Intn(len(v) - k + 1)
						copy(v[sV:sV+k], h[sH:sH+k])
						label := name + "/" + tier.String()
						// Every tier: a recording's Result carries the
						// narrow tier's outcome like the score sweep's.
						checkFusedExtension(t, h, v, sH, sV, false, p, label+"/left")
						checkFusedExtension(t, h, v, sH+k, sV+k, true, p, label+"/right")
					}
				}
			}
		}
	}
}

// TestFusedEligibility pins the gate: the modeled device never fuses
// narrow-tier extensions (its int16 score pass does not record), and
// fuses wide extensions of every linear-gap variant.
func TestFusedEligibility(t *testing.T) {
	dna := tbVariants()["restricted2-db256"]
	if FusedEligible(300, 300, dna) != true {
		t.Fatal("wide restricted2 extension not fused-eligible")
	}
	narrow := dna
	narrow.Tier = TierNarrow
	if FusedEligible(100, 100, narrow) {
		t.Fatal("narrow-tier extension fused-eligible; the device's int16 score pass does not record")
	}
	// Past the int16 headroom the auto tier falls back to wide lanes,
	// and eligibility returns with it.
	wideAgain := dna
	wideAgain.Tier = TierAuto
	if !FusedEligible(satGuard16+1, satGuard16+1, wideAgain) {
		t.Fatal("auto tier past the narrow headroom should be fused-eligible")
	}
}

// TestRecordingRejectsAffine: AlgoAffine scores but does not record, so
// every recording entry point refuses it before sweeping, while its score
// sweep still runs.
func TestRecordingRejectsAffine(t *testing.T) {
	p := Params{Scorer: tbVariants()["restricted2"].Scorer, Gap: -1, GapOpen: -2, X: 21, Algo: AlgoAffine}
	rng := rand.New(rand.NewSource(5))
	h := randDNA(rng, 120)
	v := mutate(rng, h, 0.1)
	s := Seed{H: 50, V: 50, Len: 9}
	copy(v[s.V:s.V+s.Len], h[s.H:s.H+s.Len])
	var ws Workspace
	calls := map[string]func() error{
		"FusedExtendLeft":     func() error { _, _, err := ws.FusedExtendLeft(h, v, s.H, s.V, p); return err },
		"FusedExtendRight":    func() error { _, _, err := ws.FusedExtendRight(h, v, s.H, s.V, p); return err },
		"TracebackRight(0,0)": func() error { _, err := ws.TracebackRight(h, v, 0, 0, p); return err },
		"TracebackLeft":       func() error { _, err := ws.TracebackLeft(h, v, s.H, s.V, p); return err },
		"TracebackRight":      func() error { _, err := ws.TracebackRight(h, v, s.H, s.V, p); return err },
		"TracebackSeed":       func() error { _, _, err := ws.TracebackSeed(h, v, s, p); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrAffineTraceback) {
			t.Errorf("%s: err %v, want ErrAffineTraceback", name, err)
		}
	}
	if len(ws.tb.cls) != 0 || len(ws.tb.dirs) != 0 {
		t.Errorf("a refused recording left %d windows and %d direction bytes", len(ws.tb.cls), len(ws.tb.dirs))
	}
	if _, err := ws.ExtendSeed(h, v, s, p); err != nil {
		t.Fatalf("affine score sweep: %v", err)
	}
}

// TestFusedEmptyAndEdgeExtensions covers the degenerate geometries the
// peeled loops are most likely to get wrong.
func TestFusedEmptyAndEdgeExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, p := range tbVariants() {
		for _, mn := range [][2]int{{0, 0}, {0, 17}, {17, 0}, {1, 1}, {2, 1}, {33, 29}} {
			h := randDNA(rng, mn[0])
			v := mutate(rng, h, 0.2)
			for len(v) < mn[1] {
				v = append(v, randDNA(rng, mn[1]-len(v))...)
			}
			v = v[:mn[1]]
			checkFusedExtension(t, h, v, 0, 0, true, p, name+"/edge-right")
			checkFusedExtension(t, h, v, len(h), len(v), false, p, name+"/edge-left")
		}
	}
}
