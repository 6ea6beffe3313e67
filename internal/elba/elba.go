// Package elba reimplements the ELBA long-read assembly pipeline (§2.3)
// as the paper's first real-world host for the X-Drop aligner: k-mer
// counting → sparse overlap detection (AᵀA) → X-Drop alignment of every
// overlap-matrix nonzero → string-graph simplification (containment
// removal, transitive reduction) → contig extraction.
//
// Simplifications relative to the MPI original are documented in
// DESIGN.md: single-process instead of distributed memory, and
// forward-strand reads only (the synthetic read simulator emits no
// reverse complements), which removes the bidirected-graph bookkeeping
// without changing the alignment-phase workload the paper measures.
package elba

import (
	"fmt"
	"sort"

	"github.com/sram-align/xdropipu/internal/backend"
	"github.com/sram-align/xdropipu/internal/overlap"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Config parameterises a run. Zero fields take the defaults the paper
// uses for its ELBA experiments (§5.3.2).
type Config struct {
	// K is the k-mer length (paper: 31).
	K int
	// MinKmerFreq/MaxKmerFreq bound reliable k-mers (default 2/500).
	MinKmerFreq, MaxKmerFreq int32
	// MinSharedSeeds is the seed-evidence threshold (paper: 2).
	MinSharedSeeds int32
	// MinOverlap rejects alignments spanning fewer symbols.
	MinOverlap int
	// MinScoreRatio rejects alignments scoring below ratio×span (false
	// overlap filter).
	MinScoreRatio float64
	// Fuzz is the coordinate tolerance for overlap classification and
	// transitive reduction.
	Fuzz int
	// Backend executes the alignment phase.
	Backend backend.Backend
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 31
	}
	if c.MinKmerFreq == 0 {
		c.MinKmerFreq = 2
	}
	if c.MaxKmerFreq == 0 {
		c.MaxKmerFreq = 500
	}
	if c.MinSharedSeeds == 0 {
		c.MinSharedSeeds = 2
	}
	if c.MinOverlap == 0 {
		c.MinOverlap = 500
	}
	if c.MinScoreRatio == 0 {
		c.MinScoreRatio = 0.5
	}
	if c.Fuzz == 0 {
		c.Fuzz = 150
	}
	return c
}

// Result is one assembly run's outcome.
type Result struct {
	// Dataset is the alignment workload derived from overlap detection.
	Dataset *workload.Dataset
	// OverlapStats reports the detection stage.
	OverlapStats overlap.Stats
	// Alignments holds the X-Drop results per comparison.
	Alignments []workload.Alignment
	// AlignSeconds is the modeled alignment-phase time (§6.3.1's
	// comparison quantity).
	AlignSeconds float64
	// BackendName names the executor used.
	BackendName string
	// Accepted counts alignments surviving the false-match filter.
	Accepted int
	// Contained counts reads swallowed by containment removal.
	Contained int
	// Edges and ReducedEdges count string-graph edges before and after
	// transitive reduction.
	Edges, ReducedEdges int
	// Contigs holds the assembled sequences.
	Contigs [][]byte
}

// Assemble runs the full pipeline on a read set.
func Assemble(reads [][]byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		return nil, fmt.Errorf("elba: Config.Backend is required")
	}

	cmps, ost, err := overlap.Detect(reads, overlap.Options{
		K:              cfg.K,
		MinKmerFreq:    cfg.MinKmerFreq,
		MaxKmerFreq:    cfg.MaxKmerFreq,
		MinSharedSeeds: cfg.MinSharedSeeds,
	})
	if err != nil {
		return nil, err
	}
	// Pack Ω into an arena up front: read indices survive interning
	// (identical reads share a span, not an index), every alignment
	// backend sees the same packed pool, and concurrent Assemble calls
	// submitting to a shared engine duplicate no sequence memory.
	d, err := workload.Pack("elba", reads, cmps, false)
	if err != nil {
		return nil, fmt.Errorf("elba: %w", err)
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

	g := newGraph(len(reads))
	for ci, aln := range out.Alignments {
		c := cmps[ci]
		span := aln.SpanH()
		if aln.SpanV() < span {
			span = aln.SpanV()
		}
		if span < cfg.MinOverlap || float64(aln.Score) < cfg.MinScoreRatio*float64(span) {
			continue
		}
		res.Accepted++
		g.classify(c.H, c.V, aln, len(reads[c.H]), len(reads[c.V]), cfg.Fuzz)
	}
	res.Contained = g.containedCount()
	g.dropContained()
	res.Edges = g.edgeCount()
	g.transitiveReduce(cfg.Fuzz)
	res.ReducedEdges = g.edgeCount()
	res.Contigs = g.contigs(reads)
	return res, nil
}

// N50 returns the standard assembly contiguity metric: the length L such
// that contigs of length ≥ L cover half the assembly.
func N50(contigs [][]byte) int {
	if len(contigs) == 0 {
		return 0
	}
	lens := make([]int, len(contigs))
	total := 0
	for i, c := range contigs {
		lens[i] = len(c)
		total += len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	run := 0
	for _, l := range lens {
		run += l
		if 2*run >= total {
			return l
		}
	}
	return lens[len(lens)-1]
}

// TotalLength sums contig lengths.
func TotalLength(contigs [][]byte) int {
	n := 0
	for _, c := range contigs {
		n += len(c)
	}
	return n
}
