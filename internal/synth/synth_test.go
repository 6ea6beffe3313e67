package synth

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/workload"
)

func TestMutationProfileRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := RandDNA(rng, 100000)
	prof := SubOnlyDNA(0.15)
	m := prof.Apply(rng, s)
	if len(m) != len(s) {
		t.Fatalf("sub-only mutation changed length: %d -> %d", len(s), len(m))
	}
	diff := 0
	for i := range s {
		if s[i] != m[i] {
			diff++
		}
	}
	rate := float64(diff) / float64(len(s))
	if rate < 0.13 || rate > 0.17 {
		t.Errorf("observed substitution rate %.3f, want ~0.15", rate)
	}
}

func TestUniformDNASplitsRate(t *testing.T) {
	p := UniformDNA(0.15)
	if r := p.Rate(); r < 0.149 || r > 0.151 {
		t.Errorf("Rate() = %f, want 0.15", r)
	}
}

func TestApplyIndelsChangeLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := RandDNA(rng, 50000)
	insOnly := MutationProfile{Ins: 0.1}
	delOnly := MutationProfile{Del: 0.1}
	if m := insOnly.Apply(rng, s); len(m) <= len(s) {
		t.Error("insertions did not grow the sequence")
	}
	if m := delOnly.Apply(rng, s); len(m) >= len(s) {
		t.Error("deletions did not shrink the sequence")
	}
}

func TestSubstitutionNeverIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := RandDNA(rng, 5000)
	prof := SubOnlyDNA(1.0) // substitute every symbol
	m := prof.Apply(rng, s)
	for i := range s {
		if s[i] == m[i] {
			t.Fatalf("substitution produced identical symbol at %d", i)
		}
	}
}

func TestUniformPairs(t *testing.T) {
	d := UniformPairs(UniformPairsSpec{Count: 25, Length: 500, ErrorRate: 0.15, SeedLen: 17, Seed: 4})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Comparisons) != 25 || d.NumSeqs() != 50 {
		t.Fatalf("got %d comparisons over %d sequences", len(d.Comparisons), d.NumSeqs())
	}
	for _, c := range d.Comparisons {
		h, v := d.Seq(c.H), d.Seq(c.V)
		if len(h) != 500 || len(v) != 500 {
			t.Fatal("uniform pairs must have fixed length")
		}
		// The planted seed must be an exact match.
		for k := 0; k < c.SeedLen; k++ {
			if h[c.SeedH+k] != v[c.SeedV+k] {
				t.Fatalf("seed not exact at offset %d", k)
			}
		}
	}
}

func TestUniformPairsAlignable(t *testing.T) {
	d := UniformPairs(UniformPairsSpec{Count: 5, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: 5})
	p := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15}
	for _, c := range d.Comparisons {
		r, err := core.ExtendSeed(d.Seq(c.H), d.Seq(c.V),
			core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, p)
		if err != nil {
			t.Fatal(err)
		}
		// 15% error with +1/−1 scoring gives roughly 0.55·len slope; an
		// extension spanning most of the pair should clear 100 on 400 bp.
		if r.Score < 100 {
			t.Errorf("15%% error pair scored only %d", r.Score)
		}
	}
}

func TestReadsDataset(t *testing.T) {
	d := Reads(ReadsSpec{
		Name: "ecoli-mini", GenomeLen: 60000, Coverage: 8,
		MeanReadLen: 3000, MinReadLen: 800,
		Errors: HiFiDNA(), SeedLen: 17, MinOverlap: 600, Seed: 6,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumSeqs() < 50 {
		t.Fatalf("too few reads: %d", d.NumSeqs())
	}
	if len(d.Comparisons) < d.NumSeqs() {
		t.Fatalf("too few comparisons: %d for %d reads", len(d.Comparisons), d.NumSeqs())
	}
	// Reads datasets must exhibit sequence reuse (the partitioning
	// motivation): comparisons > sequences implies some sequence is in
	// more than one comparison.
	inCmp := map[int]int{}
	for _, c := range d.Comparisons {
		inCmp[c.H]++
		inCmp[c.V]++
	}
	reused := 0
	for _, n := range inCmp {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no sequence reuse in reads dataset")
	}
	// Length variance should be substantial (log-normal model).
	minL, maxL := 1<<30, 0
	for i := range d.NumSeqs() {
		minL = min(minL, d.SeqLen(i))
		maxL = max(maxL, d.SeqLen(i))
	}
	if maxL < 2*minL {
		t.Errorf("read lengths too uniform: [%d,%d]", minL, maxL)
	}
}

func TestReadsOverlappingPairsAlign(t *testing.T) {
	d := Reads(ReadsSpec{
		Name: "mini", GenomeLen: 30000, Coverage: 6,
		MeanReadLen: 2500, MinReadLen: 1000,
		Errors: HiFiDNA(), SeedLen: 17, MinOverlap: 800, Seed: 7,
		MaxComparisons: 20,
	})
	p := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15}
	good := 0
	for _, c := range d.Comparisons {
		r, err := core.ExtendSeed(d.Seq(c.H), d.Seq(c.V),
			core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score > 400 {
			good++
		}
	}
	if good < len(d.Comparisons)/2 {
		t.Errorf("only %d/%d overlap pairs aligned well", good, len(d.Comparisons))
	}
}

func TestMaxComparisonsCap(t *testing.T) {
	d := Reads(ReadsSpec{
		Name: "capped", GenomeLen: 50000, Coverage: 10,
		MeanReadLen: 2000, MinReadLen: 700,
		Errors: HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 8,
		MaxComparisons: 13,
	})
	if len(d.Comparisons) != 13 {
		t.Errorf("cap not applied: %d comparisons", len(d.Comparisons))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProteinFamilies(t *testing.T) {
	d, labels := ProteinFamilies(ProteinFamiliesSpec{
		Families: 5, MembersPerFamily: 4, MeanLen: 300, MutRate: 0.2, Seed: 9,
	})
	if d.NumSeqs() != 20 || len(labels) != 20 {
		t.Fatalf("got %d sequences, %d labels", d.NumSeqs(), len(labels))
	}
	if !d.Protein {
		t.Error("dataset not marked protein")
	}
	// Family members must align much better than non-members.
	p := core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49}
	sameScore := core.Align(core.NewView(d.Seq(0)), core.NewView(d.Seq(1)), p).Score
	diffScore := core.Align(core.NewView(d.Seq(0)), core.NewView(d.Seq(d.NumSeqs()-1)), p).Score
	if sameScore <= diffScore*2 {
		t.Errorf("family member score %d not clearly above cross-family %d", sameScore, diffScore)
	}
}

func TestDatasetValidateCatchesBadSeeds(t *testing.T) {
	d := workload.MustPack("", [][]byte{[]byte("ACGTACGT")}, nil, false)
	if err := d.WithComparisons([]Comparison{{H: 0, V: 0, SeedH: 6, SeedV: 0, SeedLen: 5}}).Validate(); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if err := d.WithComparisons([]Comparison{{H: 0, V: 1, SeedH: 0, SeedV: 0, SeedLen: 4}}).Validate(); err == nil {
		t.Error("missing sequence index accepted")
	}
}

func TestTotalSeqBytes(t *testing.T) {
	d := workload.MustPack("", [][]byte{make([]byte, 10), make([]byte, 32)}, nil, false)
	if d.TotalSeqBytes() != 42 {
		t.Errorf("TotalSeqBytes = %d, want 42", d.TotalSeqBytes())
	}
}
