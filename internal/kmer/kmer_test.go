package kmer

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

func TestScanDNABasic(t *testing.T) {
	var occ []Occurrence
	if err := ScanDNA([]byte("ACGTA"), 3, func(o Occurrence) { occ = append(occ, o) }); err != nil {
		t.Fatal(err)
	}
	if len(occ) != 3 {
		t.Fatalf("got %d k-mers, want 3", len(occ))
	}
	wants := []string{"ACG", "CGT", "GTA"}
	for i, o := range occ {
		if string(unpackDNA(o.Kmer, 3)) != wants[i] || int(o.Pos) != i {
			t.Errorf("occ %d = %s@%d, want %s@%d", i, unpackDNA(o.Kmer, 3), o.Pos, wants[i], i)
		}
	}
}

func TestScanDNASkipsN(t *testing.T) {
	var occ []Occurrence
	if err := ScanDNA([]byte("ACGNACG"), 3, func(o Occurrence) { occ = append(occ, o) }); err != nil {
		t.Fatal(err)
	}
	// Only ACG at 0 and ACG at 4 are N-free windows.
	if len(occ) != 2 || occ[0].Pos != 0 || occ[1].Pos != 4 {
		t.Fatalf("occ = %+v", occ)
	}
}

func TestScanDNAErrors(t *testing.T) {
	if err := ScanDNA([]byte("ACGT"), 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if err := ScanDNA([]byte("ACGT"), 32, nil); err == nil {
		t.Error("k=32 accepted")
	}
	if err := ScanProtein([]byte("ARND"), 13, nil); err == nil {
		t.Error("protein k=13 accepted")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := synth.RandDNA(rng, 500)
	k := 21
	if err := ScanDNA(seq, k, func(o Occurrence) {
		if !bytes.Equal(unpackDNA(o.Kmer, k), seq[o.Pos:int(o.Pos)+k]) {
			t.Fatalf("round trip failed at %d", o.Pos)
		}
	}); err != nil {
		t.Fatal(err)
	}
	prot := synth.RandProtein(rng, 300)
	pk := 6
	if err := ScanProtein(prot, pk, func(o Occurrence) {
		if !bytes.Equal(unpackProtein(o.Kmer, pk), prot[o.Pos:int(o.Pos)+pk]) {
			t.Fatalf("protein round trip failed at %d", o.Pos)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCountDNAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seqs := [][]byte{synth.RandDNA(rng, 300), synth.RandDNA(rng, 200)}
	k := 5
	counts, err := CountDNA(seqs, k)
	if err != nil {
		t.Fatal(err)
	}
	naive := map[string]int32{}
	for _, s := range seqs {
		for i := 0; i+k <= len(s); i++ {
			naive[string(s[i:i+k])]++
		}
	}
	if len(counts) > len(naive) {
		t.Fatalf("more packed k-mers (%d) than strings (%d)", len(counts), len(naive))
	}
	for km, n := range counts {
		if naive[string(unpackDNA(km, k))] != n {
			t.Fatalf("count mismatch for %s", unpackDNA(km, k))
		}
	}
}

func TestReliableFilter(t *testing.T) {
	c := Counts{1: 1, 2: 2, 3: 5, 4: 100}
	r := c.Reliable(2, 10)
	if len(r) != 2 {
		t.Fatalf("reliable = %v", r)
	}
	if _, ok := r[2]; !ok {
		t.Error("k-mer with count 2 missing")
	}
	if _, ok := r[3]; !ok {
		t.Error("k-mer with count 5 missing")
	}
}

func TestSubstituteNeighbors(t *testing.T) {
	// Pack "AAA" (protein, k=3).
	var km uint64
	k := 3
	if err := ScanProtein([]byte("AAA"), k, func(o Occurrence) { km = o.Kmer }); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	SubstituteNeighbors(km, k, 0, func(nb uint64) {
		if seen[nb] {
			t.Fatalf("duplicate neighbour %s", unpackProtein(nb, k))
		}
		seen[nb] = true
		s := unpackProtein(nb, k)
		// Exactly one position differs from AAA.
		diff := 0
		var subbed byte
		for i := 0; i < k; i++ {
			if s[i] != 'A' {
				diff++
				subbed = s[i]
			}
		}
		if diff != 1 {
			t.Fatalf("neighbour %s differs in %d positions", s, diff)
		}
		if scoring.Blosum62.Score('A', subbed) < 0 {
			t.Fatalf("neighbour %s has negative substitution score", s)
		}
	})
	if len(seen) == 0 {
		t.Fatal("no neighbours emitted")
	}
	// Raising the threshold must shrink the set.
	tight := 0
	SubstituteNeighbors(km, k, 1, func(uint64) { tight++ })
	if tight >= len(seen) {
		t.Errorf("threshold 1 (%d) not smaller than threshold 0 (%d)", tight, len(seen))
	}
}

func TestCountProtein(t *testing.T) {
	counts, err := CountProtein([][]byte{[]byte("ARNDAR")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: AR, RN, ND, DA, AR → AR twice.
	var arKm uint64
	ScanProtein([]byte("AR"), 2, func(o Occurrence) { arKm = o.Kmer })
	if counts[arKm] != 2 {
		t.Errorf("AR count = %d, want 2", counts[arKm])
	}
	if len(counts) != 4 {
		t.Errorf("distinct k-mers = %d, want 4", len(counts))
	}
}

// unpackDNA renders a packed DNA k-mer back to symbols.
func unpackDNA(km uint64, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = "ACGT"[km&3]
		km >>= 2
	}
	return out
}

// unpackProtein renders a packed protein k-mer back to residues.
func unpackProtein(km uint64, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = protAlpha[km&31]
		km >>= 5
	}
	return out
}
