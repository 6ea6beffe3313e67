package pastis

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/backend"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

func ipuBackend() backend.Backend {
	return &backend.IPU{Cfg: driver.Config{
		IPUs: 1, Model: platform.BOW, TilesPerIPU: 16, Partition: true,
		Kernel: ipukernel.Config{
			// §5.3.1: X=49, gap −2, BLOSUM62.
			Params:           core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
	}}
}

func familyData(t *testing.T) (*synthDataset, []int) {
	t.Helper()
	d, labels := synth.ProteinFamilies(synth.ProteinFamiliesSpec{
		Families: 6, MembersPerFamily: 4, MeanLen: 280, MutRate: 0.15, Seed: 1,
	})
	return &synthDataset{seqsOf(d)}, labels
}

type synthDataset struct{ seqs [][]byte }

func seqsOf(d *synth.Dataset) [][]byte {
	arena, _ := d.Spine()
	return arena.SeqViews()
}

func TestSearchRecoversFamilies(t *testing.T) {
	data, labels := familyData(t)
	res, err := Search(data.seqs, Config{Backend: ipuBackend()})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlapStats.Comparisons == 0 {
		t.Fatal("no candidate pairs seeded")
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no homolog pairs accepted")
	}
	// Precision: every accepted pair must share a family label.
	for _, p := range res.Pairs {
		if labels[p[0]] != labels[p[1]] {
			t.Errorf("false positive pair %v (families %d vs %d)", p, labels[p[0]], labels[p[1]])
		}
	}
	// Recall: most in-family pairs must be recovered. 4 members → 6
	// pairs per family, 36 total.
	want := 0
	for i := range labels {
		for j := i + 1; j < len(labels); j++ {
			if labels[i] == labels[j] {
				want++
			}
		}
	}
	if len(res.Pairs) < want*7/10 {
		t.Errorf("recall too low: %d of %d in-family pairs", len(res.Pairs), want)
	}
	// Families must be consistent groupings: each reported family's
	// members share one ground-truth label.
	for _, fam := range res.Families {
		if len(fam) < 2 {
			continue
		}
		for _, m := range fam[1:] {
			if labels[m] != labels[fam[0]] {
				t.Errorf("family %v mixes labels", fam)
			}
		}
	}
}

func TestSearchCPUAndIPUAgree(t *testing.T) {
	data, _ := familyData(t)
	a, err := Search(data.seqs, Config{Backend: ipuBackend()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(data.seqs, Config{Backend: &backend.CPU{Model: platform.EPYC7763, X: 49}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("backends disagree: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("pair lists differ")
		}
	}
	if a.AlignSeconds <= 0 || b.AlignSeconds <= 0 {
		t.Error("alignment times missing")
	}
}

func TestSearchRejectsMissingBackend(t *testing.T) {
	if _, err := Search(nil, Config{}); err == nil {
		t.Error("missing backend accepted")
	}
}

func TestSearchQuasiExactImprovesRecall(t *testing.T) {
	// At higher divergence, exact 6-mer seeds become scarce; the
	// substitution index should find at least as many candidates.
	d, _ := synth.ProteinFamilies(synth.ProteinFamiliesSpec{
		Families: 4, MembersPerFamily: 3, MeanLen: 250, MutRate: 0.25, Seed: 2,
	})
	exact, err := Search(seqsOf(d), Config{Backend: ipuBackend(), SubstituteMinScore: -1})
	if err != nil {
		t.Fatal(err)
	}
	quasi, err := Search(seqsOf(d), Config{Backend: ipuBackend(), SubstituteMinScore: 3})
	if err != nil {
		t.Fatal(err)
	}
	if quasi.OverlapStats.Comparisons < exact.OverlapStats.Comparisons {
		t.Errorf("quasi-exact seeded fewer candidates (%d) than exact (%d)",
			quasi.OverlapStats.Comparisons, exact.OverlapStats.Comparisons)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(1, 2)
	uf.union(4, 5)
	comps := uf.components()
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("components = %v", comps)
	}
	if uf.find(0) != uf.find(2) || uf.find(0) == uf.find(3) {
		t.Error("find broken")
	}
}
