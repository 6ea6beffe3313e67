package overlap

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func hasPair(cmps []workload.Comparison, a, b int) bool {
	for _, c := range cmps {
		if c.H == a && c.V == b {
			return true
		}
	}
	return false
}

// mustDetect is Detect of seqs, failing the test on an error.
func mustDetect(t testing.TB, seqs [][]byte, opt Options) ([]workload.Comparison, Stats) {
	t.Helper()
	cmps, st, err := Detect(seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cmps, st
}

func TestDetectFindsOverlappingReads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	genome := synth.RandDNA(rng, 12000)
	prof := synth.HiFiDNA()
	// Three overlapping reads plus one unrelated sequence.
	reads := [][]byte{
		prof.Apply(rng, genome[0:4000]),
		prof.Apply(rng, genome[3000:7000]),
		prof.Apply(rng, genome[6000:10000]),
		synth.RandDNA(rng, 4000),
	}
	cmps, st := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 2})
	if st.ReliableKmers == 0 || st.Comparisons != len(cmps) {
		t.Errorf("stats inconsistent: %+v", st)
	}
	for _, c := range cmps {
		if c.H >= c.V {
			t.Fatalf("comparison not upper-triangular: %d,%d", c.H, c.V)
		}
		if c.SeedH+c.SeedLen > len(reads[c.H]) || c.SeedV+c.SeedLen > len(reads[c.V]) {
			t.Fatal("seed out of range")
		}
	}
	if !hasPair(cmps, 0, 1) || !hasPair(cmps, 1, 2) {
		t.Errorf("expected overlaps missing: %v", cmps)
	}
	for _, other := range []int{0, 1, 2} {
		if hasPair(cmps, other, 3) {
			t.Error("random read spuriously overlapped")
		}
	}
}

func TestDetectSeedsAreRealMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genome := synth.RandDNA(rng, 8000)
	prof := synth.HiFiDNA()
	reads := [][]byte{
		prof.Apply(rng, genome[0:5000]),
		prof.Apply(rng, genome[2000:8000]),
	}
	cmps, _ := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 2})
	if len(cmps) != 1 {
		t.Fatalf("got %d comparisons, want 1", len(cmps))
	}
	c := cmps[0]
	h := reads[c.H][c.SeedH : c.SeedH+c.SeedLen]
	v := reads[c.V][c.SeedV : c.SeedV+c.SeedLen]
	if string(h) != string(v) {
		t.Errorf("seed mismatch: %s vs %s", h, v)
	}
}

func TestDetectMinSharedSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	genome := synth.RandDNA(rng, 6000)
	reads := [][]byte{
		append([]byte{}, genome[0:3500]...),
		append([]byte{}, genome[3000:6000]...), // 500 bp of exact overlap
	}
	loose, _ := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 1})
	strict, _ := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 1000})
	if len(loose) != 1 {
		t.Fatalf("loose detection found %d pairs", len(loose))
	}
	if len(strict) != 0 {
		t.Fatalf("absurd threshold still found %d pairs", len(strict))
	}
}

func TestDetectProteinQuasiExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := synth.RandProtein(rng, 400)
	prof := synth.MutationProfile{Sub: 0.15, Protein: true}
	a := prof.Apply(rng, base)
	b := prof.Apply(rng, base)
	unrelated := synth.RandProtein(rng, 400)
	seqs := [][]byte{a, b, unrelated}

	exact, _ := mustDetect(t, seqs, Options{K: 6, MinKmerFreq: 1, MinSharedSeeds: 2, Protein: true})
	quasi, _ := mustDetect(t, seqs, Options{K: 6, MinKmerFreq: 1, MinSharedSeeds: 2, Protein: true, SubstituteMinScore: 3})
	if !hasPair(exact, 0, 1) && !hasPair(quasi, 0, 1) {
		t.Fatal("homologous pair not seeded at all")
	}
	// Quasi-exact seeding must find at least as many pairs as exact.
	if len(quasi) < len(exact) {
		t.Errorf("quasi-exact (%d pairs) found fewer than exact (%d)", len(quasi), len(exact))
	}
}

func TestDetectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	genome := synth.RandDNA(rng, 20000)
	prof := synth.HiFiDNA()
	var reads [][]byte
	for i := 0; i+4000 <= 20000; i += 1500 {
		reads = append(reads, prof.Apply(rng, genome[i:i+4000]))
	}
	a, _ := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 2})
	b, _ := mustDetect(t, reads, Options{K: 17, MinKmerFreq: 2, MinSharedSeeds: 2})
	if len(a) != len(b) {
		t.Fatal("nondeterministic comparison count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("comparison %d differs between runs", i)
		}
	}
}

func TestDetectErrors(t *testing.T) {
	if _, _, err := Detect(nil, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}
