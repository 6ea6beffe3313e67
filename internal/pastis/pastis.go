// Package pastis reimplements the PASTIS protein-homology pipeline (§2.4)
// as the paper's second real-world host: quasi-exact k-mer seeding under
// BLOSUM62 (the ASAᵀ overlap product), X-Drop alignment of every candidate
// pair (X=49, gap −2, BLOSUM62; §5.3.1), a similarity filter, and
// connected-component clustering into protein families.
package pastis

import (
	"fmt"

	"github.com/sram-align/xdropipu/internal/backend"
	"github.com/sram-align/xdropipu/internal/overlap"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Config parameterises a search. Zero fields take the paper's PASTIS
// settings (§5.3.1).
type Config struct {
	// K is the protein k-mer length (paper: 6).
	K int
	// SubstituteMinScore enables quasi-exact seeding: single-residue
	// substitutions scoring at least this under BLOSUM62 also seed
	// (default 3; 0 disables, <0 treated as disabled).
	SubstituteMinScore int
	// MinSharedSeeds is the per-pair seed evidence (paper: 2).
	MinSharedSeeds int32
	// MaxKmerFreq drops promiscuous k-mers (default 200).
	MaxKmerFreq int32
	// MinScorePerColumn accepts pairs scoring at least this per aligned
	// column (default 1.0 — roughly 25–30% identity under BLOSUM62).
	MinScorePerColumn float64
	// MinAlnLen rejects trivially short alignments (default 30).
	MinAlnLen int
	// Backend executes the alignment phase.
	Backend backend.Backend
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 6
	}
	if c.SubstituteMinScore == 0 {
		c.SubstituteMinScore = 3
	}
	if c.MinSharedSeeds == 0 {
		c.MinSharedSeeds = 2
	}
	if c.MaxKmerFreq == 0 {
		c.MaxKmerFreq = 200
	}
	if c.MinScorePerColumn == 0 {
		c.MinScorePerColumn = 1.0
	}
	if c.MinAlnLen == 0 {
		c.MinAlnLen = 30
	}
	return c
}

// Result is one homology search outcome.
type Result struct {
	// Dataset is the alignment workload from quasi-exact seeding.
	Dataset *workload.Dataset
	// OverlapStats reports the seeding stage.
	OverlapStats overlap.Stats
	// Alignments holds per-candidate X-Drop results.
	Alignments []workload.Alignment
	// AlignSeconds is the modeled alignment-phase time (§6.3.2).
	AlignSeconds float64
	// BackendName names the executor.
	BackendName string
	// Pairs lists accepted homolog pairs (sequence index pairs).
	Pairs [][2]int
	// Families groups sequence indices into connected components over
	// accepted pairs; singletons included.
	Families [][]int
}

// Search runs the pipeline over a protein sequence set.
func Search(seqs [][]byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		return nil, fmt.Errorf("pastis: Config.Backend is required")
	}

	sub := cfg.SubstituteMinScore
	if sub < 0 {
		sub = 0
	}
	cmps, ost, err := overlap.Detect(seqs, overlap.Options{
		K:                  cfg.K,
		MinKmerFreq:        1,
		MaxKmerFreq:        cfg.MaxKmerFreq,
		MinSharedSeeds:     cfg.MinSharedSeeds,
		Protein:            true,
		SubstituteMinScore: sub,
	})
	if err != nil {
		return nil, err
	}
	// Pack the protein pool into an arena (indices preserved; duplicate
	// homologs share storage); the plan is validated against it once.
	d, err := workload.Pack("pastis", seqs, cmps, true)
	if err != nil {
		return nil, fmt.Errorf("pastis: %w", err)
	}

	out, err := cfg.Backend.Align(d)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Dataset:      d,
		OverlapStats: ost,
		Alignments:   out.Alignments,
		AlignSeconds: out.Seconds,
		BackendName:  out.Name,
	}

	uf := newUnionFind(len(seqs))
	for ci, aln := range out.Alignments {
		span := aln.SpanH()
		if aln.SpanV() < span {
			span = aln.SpanV()
		}
		if span < cfg.MinAlnLen || float64(aln.Score) < cfg.MinScorePerColumn*float64(span) {
			continue
		}
		c := cmps[ci]
		res.Pairs = append(res.Pairs, [2]int{c.H, c.V})
		uf.union(c.H, c.V)
	}
	res.Families = uf.components()
	return res, nil
}

// unionFind is a plain disjoint-set forest with path halving.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// components returns the index groups, ordered by smallest member.
func (uf *unionFind) components() [][]int {
	byRoot := make(map[int][]int)
	var roots []int
	for i := range uf.parent {
		r := uf.find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}
