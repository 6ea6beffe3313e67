// Package workload defines the interchange format between workload
// producers (synthetic generators, the ELBA and PASTIS pipelines) and the
// alignment execution stack (partitioner, batcher, driver, kernels).
//
// There is one representation, the arena spine of §4.3: the sequence pool
// Ω as contiguous, content-interned byte slabs addressed by SeqRef spans
// (Arena), plus the planned seed extensions as a columnar Plan table. A
// Dataset is that pair under a name, packed once by its constructor (Pack
// from plain slices, Arena.NewDataset from a filled arena) and immutable
// afterwards.
package workload

import (
	"errors"
	"fmt"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// Comparison is one planned pairwise alignment: two sequence indices plus
// the seed match that anchors the extension — the e_c tuple of §4.3.
type Comparison struct {
	// H and V index into the dataset's sequence pool.
	H, V int
	// SeedH and SeedV are the seed start offsets on each sequence.
	SeedH, SeedV int
	// SeedLen is the k-mer length.
	SeedLen int
}

// Dataset is a sequence pool Ω plus the comparisons to run on it: an
// arena and a plan over it, fully built at construction and shared
// read-only by every layer and every concurrent job from then on. A
// different comparison set over the same pool is a new Dataset
// (WithComparisons); different sequence bytes are a new Pack.
type Dataset struct {
	// Name labels the dataset in reports.
	Name string
	// Comparisons lists the planned seed extensions: the plan's cached
	// rows, read-only. Reassigning it does not re-plan — Validate rejects
	// the mismatch; use WithComparisons.
	Comparisons []Comparison
	// Protein marks amino-acid data.
	Protein bool

	arena *Arena
	plan  *Plan
}

// Pack builds a dataset from plain slices: Ω packed into a fresh arena in
// index order (identical sequences share storage, never an index), cmps
// transposed into a columnar plan and bounds-checked against the pool.
// The slices are copied, so the caller may keep mutating them.
func Pack(name string, seqs [][]byte, cmps []Comparison, protein bool) (*Dataset, error) {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	return packInto(NewArena(total, len(seqs)), name, seqs, cmps, protein)
}

// packInto is Pack over a caller-prepared arena (slab cap, spill).
func packInto(a *Arena, name string, seqs [][]byte, cmps []Comparison, protein bool) (*Dataset, error) {
	for i, s := range seqs {
		if _, err := a.TryAppend(s); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
	}
	p := PlanOf(cmps)
	if err := a.ValidatePlan(p); err != nil {
		return nil, err
	}
	return a.NewDataset(name, p, protein), nil
}

// MustPack is Pack for generators and fixtures whose input is correct by
// construction; it panics where Pack returns an error.
func MustPack(name string, seqs [][]byte, cmps []Comparison, protein bool) *Dataset {
	d, err := Pack(name, seqs, cmps, protein)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Spine returns the dataset's arena and columnar plan — what the
// partitioner, the tiles and the wire format run on.
func (d *Dataset) Spine() (*Arena, *Plan) { return d.arena, d.plan }

// WithComparisons returns a dataset over the same arena (shared, not
// copied) under a fresh plan of cmps — how a caller truncates, extends or
// replaces the comparison set. d is untouched; cmps is validated with
// everything else at the BuildBatches gate.
func (d *Dataset) WithComparisons(cmps []Comparison) *Dataset {
	return d.arena.NewDataset(d.Name, PlanOf(cmps), d.Protein)
}

// Clone re-packs the dataset into a fresh, fully resident arena (faulting
// in any spilled slabs) under its own copy of the plan: same indices,
// same content digests, no shared storage.
func (d *Dataset) Clone() *Dataset {
	a := NewArena(d.arena.SlabBytes(), d.NumSeqs())
	for i := range d.NumSeqs() {
		a.Append(d.arena.Seq(i)) // fits: it already fit a slab of d's arena
	}
	return a.NewDataset(d.Name, PlanOf(d.plan.Comparisons()), d.Protein)
}

// NumSeqs returns the pool size.
func (d *Dataset) NumSeqs() int { return d.arena.Len() }

// SeqLen returns sequence i's length from the span table, so it never
// faults a spilled slab in — which keeps cost estimation and validation
// residency-free.
func (d *Dataset) SeqLen(i int) int { return int(d.arena.refs[i].Len) }

// Seq returns sequence i as a zero-copy, read-only view into its slab,
// faulting the slab in if it is spilled.
func (d *Dataset) Seq(i int) []byte { return d.arena.Seq(i) }

// TotalSeqBytes sums sequence lengths (the logical |Ω|; interning may
// store less — see Arena.SlabBytes).
func (d *Dataset) TotalSeqBytes() int64 { return d.arena.SeqBytes() }

// Validate checks that every comparison references a pooled sequence and
// anchors its seed in range (Arena.ValidatePlan), and that Comparisons is
// still the plan's row count. The driver calls it once per submission on
// every entry path, so layers below (partition, kernel) index the spine
// without re-checking. Sequence sizes need no check here: TryAppend
// enforced the slab cap when the pool was packed.
func (d *Dataset) Validate() error {
	if d.arena == nil || d.plan == nil {
		return errors.New("workload: dataset has no spine; build it with Pack or Arena.NewDataset")
	}
	if len(d.Comparisons) != d.plan.Len() {
		return fmt.Errorf("workload: Comparisons has %d rows but the plan %d; datasets are immutable, use WithComparisons",
			len(d.Comparisons), d.plan.Len())
	}
	return d.arena.ValidatePlan(d.plan)
}

// ExtensionLens returns the four extension lengths of comparison c: the
// left and right fragments of H and V around the seed. Table 2 reports
// their distributions.
func (d *Dataset) ExtensionLens(c Comparison) (lh, lv, rh, rv int) {
	nh, nv := d.SeqLen(c.H), d.SeqLen(c.V)
	return c.SeedH, c.SeedV, nh - c.SeedH - c.SeedLen, nv - c.SeedV - c.SeedLen
}

// Complexity returns |H|·|V| for comparison c, the Table 2 "Complexity"
// column and the GCUPS numerator (§5.1).
func (d *Dataset) Complexity(c Comparison) int64 {
	return int64(d.SeqLen(c.H)) * int64(d.SeqLen(c.V))
}

// TheoreticalCells sums Complexity over all comparisons.
func (d *Dataset) TheoreticalCells() int64 {
	var n int64
	for _, c := range d.Comparisons {
		n += d.Complexity(c)
	}
	return n
}

// Alignment is the outcome of one comparison's seed-and-extend alignment,
// in dataset coordinates: [BegH,EndH) on sequence H aligned to
// [BegV,EndV) on sequence V.
type Alignment struct {
	// Score is the total alignment score (left + seed + right).
	Score int
	// BegH/BegV are inclusive start offsets; EndH/EndV exclusive ends.
	BegH, BegV, EndH, EndV int
	// Cigar is the alignment's edit script over the aligned region,
	// empty unless the backend ran with traceback enabled. Identity and
	// aligned spans derive from it (alignment.Cigar methods).
	Cigar alignment.Cigar
	// Failed marks a comparison whose batch exhausted the engine's
	// fault tolerance and completed as a degraded placeholder
	// (DegradePartial): Score, spans and Cigar are zero. Backends
	// without fault injection never set it.
	Failed bool
}

// SpanH returns the aligned length on H.
func (a Alignment) SpanH() int { return a.EndH - a.BegH }

// SpanV returns the aligned length on V.
func (a Alignment) SpanV() int { return a.EndV - a.BegV }
