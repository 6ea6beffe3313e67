package baselines

import (
	"bytes"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func simData(t *testing.T) *workload.Dataset {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 30, Length: 1200, ErrorRate: 0.15, SeedLen: 17, Seed: 1,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSeqAnScoresMatchCore(t *testing.T) {
	d := simData(t)
	res := SeqAn(d, 15, platform.EPYC7763)
	p := SeqAnParams(15)
	for i, c := range d.Comparisons {
		want, err := core.ExtendSeed(d.Seq(c.H), d.Seq(c.V),
			core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scores[i] != want.Score {
			t.Fatalf("cmp %d: seqan %d != core %d", i, res.Scores[i], want.Score)
		}
	}
	if res.Seconds <= 0 || res.GCUPS() <= 0 {
		t.Errorf("bad accounting: %+v", res)
	}
}

func TestBaselineOrderingOnHiFiData(t *testing.T) {
	// Fig. 5's CPU-side ordering at realistic X: SeqAn beats ksw2 (larger
	// affine search space) and genometools (scalar).
	d := simData(t)
	x := 15
	seqan := SeqAn(d, x, platform.EPYC7763)
	ksw2 := Ksw2(d, x, platform.EPYC7763)
	gt := GenomeTools(d, x, platform.EPYC7763)
	if !(seqan.GCUPS() > ksw2.GCUPS()) {
		t.Errorf("seqan (%.0f) should beat ksw2 (%.0f)", seqan.GCUPS(), ksw2.GCUPS())
	}
	if !(seqan.GCUPS() > gt.GCUPS()) {
		t.Errorf("seqan (%.0f) should beat genometools (%.0f)", seqan.GCUPS(), gt.GCUPS())
	}
	// ksw2's handicap must come from a genuinely larger search space.
	if ksw2.Cells <= seqan.Cells {
		t.Errorf("ksw2 cells %d not above seqan cells %d", ksw2.Cells, seqan.Cells)
	}
}

func TestLoganSyncBoundAtSmallX(t *testing.T) {
	// LOGAN's GCUPS should be far below SeqAn's at X=5 and close the gap
	// at X=20 (Fig. 5: 10.5× vs 2.55× against the IPU; against SeqAn the
	// ratio moves the same direction).
	d := simData(t)
	gapAt := func(x int) float64 {
		return SeqAn(d, x, platform.EPYC7763).GCUPS() / Logan(d, x, platform.A100, 1).GCUPS()
	}
	g5, g20 := gapAt(5), gapAt(20)
	if g5 <= 1 {
		t.Errorf("at X=5 LOGAN (gap %.2f) should trail SeqAn", g5)
	}
	if g20 >= g5 {
		t.Errorf("LOGAN should close the gap with X: %.2f at X=5 vs %.2f at X=20", g5, g20)
	}
}

func TestLoganMultiGPUScales(t *testing.T) {
	d := simData(t)
	one := Logan(d, 15, platform.A100, 1)
	four := Logan(d, 15, platform.A100, 4)
	if four.Seconds >= one.Seconds {
		t.Errorf("4 GPUs (%.4gs) not faster than 1 (%.4gs)", four.Seconds, one.Seconds)
	}
	if one.Scores[0] != four.Scores[0] {
		t.Error("GPU count changed scores")
	}
}

func TestVecEfficiencyGrowsWithBand(t *testing.T) {
	cpu := platform.EPYC7763
	if !(cpu.VecCellsPerCycle(50) > cpu.VecCellsPerCycle(10)) {
		t.Error("vector efficiency should grow with band width")
	}
	if cpu.VecCellsPerCycle(0) != 0 {
		t.Error("zero band must yield zero throughput")
	}
	if cpu.VecCellsPerCycle(1e9) > cpu.VecPeakCellsPerCycle {
		t.Error("efficiency must not exceed peak")
	}
}

func TestProteinBaseline(t *testing.T) {
	gen, _ := synth.ProteinFamilies(synth.ProteinFamiliesSpec{
		Families: 4, MembersPerFamily: 3, MeanLen: 250, MutRate: 0.15, Seed: 2,
	})
	// Datasets are immutable (identical members share interned spans) and
	// seed planting below mutates in place, so copy the pool out, edit the
	// copy and re-pack.
	seqs := make([][]byte, gen.NumSeqs())
	for i := range seqs {
		seqs[i] = bytes.Clone(gen.Seq(i))
	}
	var cmps []workload.Comparison
	// Give every in-family pair a comparison with a centred seed.
	for f := 0; f < 4; f++ {
		base := f * 3
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				h, v := seqs[base+a], seqs[base+b]
				k := 6
				sh := len(h) / 2
				sv := len(v) / 2
				if sh+k > len(h) || sv+k > len(v) {
					continue
				}
				synth.PlantSeed(h, v, sh, sv, k)
				cmps = append(cmps, workload.Comparison{
					H: base + a, V: base + b, SeedH: sh, SeedV: sv, SeedLen: k,
				})
			}
		}
	}
	d, err := workload.Pack(gen.Name, seqs, cmps, true)
	if err != nil {
		t.Fatal(err)
	}
	res := SeqAn(d, 49, platform.EPYC7763)
	for i, s := range res.Scores {
		if s <= 0 {
			t.Errorf("protein pair %d scored %d", i, s)
		}
	}
	// Protein runs must use BLOSUM62: a sanity alignment of identical
	// tryptophans scores 11 each.
	if scoring.Blosum62.Score('W', 'W') != 11 {
		t.Fatal("BLOSUM62 wiring broken")
	}
}

func TestEmptyDatasetBaselines(t *testing.T) {
	d := workload.MustPack("empty", nil, nil, false)
	for _, r := range []*Result{
		SeqAn(d, 10, platform.EPYC7763),
		Ksw2(d, 10, platform.EPYC7763),
		GenomeTools(d, 10, platform.EPYC7763),
		Logan(d, 10, platform.A100, 1),
	} {
		if len(r.Scores) != 0 {
			t.Errorf("%s produced scores for empty dataset", r.Name)
		}
	}
}
