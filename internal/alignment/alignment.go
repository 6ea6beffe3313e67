// Package alignment defines the edit-operation representation of a
// pairwise alignment: CIGAR strings over the {=, X, I, D} operation set,
// plus the spans and identity derived from them and an independent
// score-reconstruction oracle.
//
// The package is the reporting half of the traceback subsystem: the DP
// kernels (internal/core) emit operations, everything above — tiles,
// driver, engine, pipelines — carries them around as opaque values. A
// Cigar is deliberately a string, not a slice of runs: it is immutable,
// comparable with ==, shareable across result fan-out and the cross-job
// result cache without aliasing concerns, and zero when traceback is off.
//
// Conventions: H is the query-side sequence and V the target-side one
// (matching the kernels' naming). '=' and 'X' consume one symbol of each;
// 'I' consumes H only (a gap in V); 'D' consumes V only (a gap in H).
package alignment

import (
	"fmt"
	"math"
	"strconv"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// Op is one CIGAR edit operation.
type Op byte

// The operation set. Only the exact-match/mismatch pair is emitted (never
// the ambiguous 'M'), so identity falls out of the CIGAR alone.
const (
	// OpMatch ('=') aligns two equal symbols.
	OpMatch Op = '='
	// OpMismatch ('X') aligns two differing symbols.
	OpMismatch Op = 'X'
	// OpIns ('I') consumes one H symbol against a gap in V.
	OpIns Op = 'I'
	// OpDel ('D') consumes one V symbol against a gap in H.
	OpDel Op = 'D'
)

// Valid reports whether the operation is in the emitted set.
func (o Op) Valid() bool {
	return o == OpMatch || o == OpMismatch || o == OpIns || o == OpDel
}

// ConsumesH reports whether the operation advances the H (query) cursor.
func (o Op) ConsumesH() bool { return o == OpMatch || o == OpMismatch || o == OpIns }

// ConsumesV reports whether the operation advances the V (target) cursor.
func (o Op) ConsumesV() bool { return o == OpMatch || o == OpMismatch || o == OpDel }

// Run is one maximal run of a single operation.
type Run struct {
	// Op is the operation.
	Op Op
	// Len is the run length (> 0 in a valid Cigar).
	Len int
}

// Cigar is the compact textual encoding of an alignment's edit operations,
// e.g. "12=1X3D2=". The empty Cigar is valid and denotes an empty
// alignment (a zero-length extension, or traceback disabled).
//
// A valid Cigar is canonical: every run length is positive and adjacent
// runs use different operations, so String/Parse round-trip exactly and
// two equal alignments have equal (==) Cigars.
type Cigar string

// String returns the encoding itself.
func (c Cigar) String() string { return string(c) }

// scan walks the runs, calling fn for each; it reports malformed input
// (bad syntax, zero lengths, unknown ops, non-canonical adjacency).
func (c Cigar) scan(fn func(Run) error) error {
	prev := Op(0)
	for i := 0; i < len(c); {
		start := i
		// The length accumulates as its digits are walked. It is capped
		// once past what an int holds, so a long digit string cannot wrap
		// back into range; the cap is reported below as strconv.Atoi did.
		n, overflow := 0, false
		for ; i < len(c) && c[i] >= '0' && c[i] <= '9'; i++ {
			d := int(c[i] - '0')
			if n > (math.MaxInt-d)/10 {
				overflow = true
				continue
			}
			n = n*10 + d
		}
		if i == start {
			return fmt.Errorf("alignment: cigar %q: missing length at offset %d", c, start)
		}
		if c[start] == '0' {
			// Leading zeros would let two encodings of one alignment
			// compare unequal ("01=" vs "1="), breaking == comparability.
			return fmt.Errorf("alignment: cigar %q: non-canonical length at offset %d", c, start)
		}
		if i >= len(c) {
			return fmt.Errorf("alignment: cigar %q: truncated run at offset %d", c, start)
		}
		if overflow {
			return fmt.Errorf("alignment: cigar %q: bad length at offset %d: value out of range", c, start)
		}
		op := Op(c[i])
		i++
		if !op.Valid() {
			return fmt.Errorf("alignment: cigar %q: unknown op %q", c, op)
		}
		if n <= 0 {
			return fmt.Errorf("alignment: cigar %q: zero-length %q run", c, op)
		}
		if op == prev {
			return fmt.Errorf("alignment: cigar %q: adjacent %q runs (not canonical)", c, op)
		}
		prev = op
		if err := fn(Run{Op: op, Len: n}); err != nil {
			return err
		}
	}
	return nil
}

// Validate reports whether the Cigar is well-formed and canonical.
func (c Cigar) Validate() error {
	return c.scan(func(Run) error { return nil })
}

// Runs decodes the Cigar into its run list.
func (c Cigar) Runs() ([]Run, error) {
	var runs []Run
	if err := c.scan(func(r Run) error { runs = append(runs, r); return nil }); err != nil {
		return nil, err
	}
	return runs, nil
}

// Parse validates s and returns it as a Cigar.
func Parse(s string) (Cigar, error) {
	c := Cigar(s)
	if err := c.Validate(); err != nil {
		return "", err
	}
	return c, nil
}

// Stats are the aggregate properties of a Cigar.
type Stats struct {
	// SpanH and SpanV are the consumed query/target lengths.
	SpanH, SpanV int
	// Columns is the total operation count (alignment length).
	Columns int
	// Matches counts '=' columns.
	Matches int
	// Runs counts maximal runs — the wire size of the encoded CIGAR is
	// 4 bytes per run (BAM-style packed <len,op> words).
	Runs int
}

// Stats aggregates the Cigar's spans, column and match counts.
func (c Cigar) Stats() (Stats, error) {
	var st Stats
	err := c.scan(func(r Run) error {
		st.Columns += r.Len
		st.Runs++
		if r.Op.ConsumesH() {
			st.SpanH += r.Len
		}
		if r.Op.ConsumesV() {
			st.SpanV += r.Len
		}
		if r.Op == OpMatch {
			st.Matches += r.Len
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Identity returns the fraction of '=' columns over all columns, in
// [0, 1]. An empty or malformed Cigar yields 0.
func (c Cigar) Identity() float64 {
	st, err := c.Stats()
	if err != nil || st.Columns == 0 {
		return 0
	}
	return float64(st.Matches) / float64(st.Columns)
}

// wireBytesPerRun is the transfer size of one run: a BAM-style packed
// length+op word.
const wireBytesPerRun = 4

// WireBytes returns the encoded transfer size of the Cigar: 4 bytes per
// run, 0 when empty.
func (c Cigar) WireBytes() int {
	st, err := c.Stats()
	if err != nil {
		return 0
	}
	return wireBytesPerRun * st.Runs
}

// Reverse returns the Cigar read back-to-front (runs reversed; each run
// is symmetric). Reversing maps an alignment of (h, v) onto the reversed
// sequences, which is how left seed extensions compose.
func (c Cigar) Reverse() (Cigar, error) {
	runs, err := c.Runs()
	if err != nil {
		return "", err
	}
	var b Builder
	for i := len(runs) - 1; i >= 0; i-- {
		b.Append(runs[i].Op, runs[i].Len)
	}
	return b.Cigar(), nil
}

// Builder assembles a canonical Cigar incrementally, merging adjacent
// runs of the same operation. The zero value is ready to use.
type Builder struct {
	buf     []byte
	runs    int // runs already encoded into buf
	lastOp  Op
	lastLen int
}

// Append adds n columns of op. Appending n <= 0 is a no-op; an invalid
// op panics (builder misuse, not data error).
func (b *Builder) Append(op Op, n int) {
	if n <= 0 {
		return
	}
	if !op.Valid() {
		panic(fmt.Sprintf("alignment: Builder.Append of invalid op %q", byte(op)))
	}
	if op == b.lastOp {
		b.lastLen += n
		return
	}
	b.flush()
	b.lastOp, b.lastLen = op, n
}

// AppendCigar appends every run of c, merging at the boundary.
func (b *Builder) AppendCigar(c Cigar) error {
	return c.scan(func(r Run) error { b.Append(r.Op, r.Len); return nil })
}

func (b *Builder) flush() {
	if b.lastLen > 0 {
		b.buf = strconv.AppendInt(b.buf, int64(b.lastLen), 10)
		b.buf = append(b.buf, byte(b.lastOp))
		b.runs++
		b.lastLen = 0
	}
}

// WireBytes returns Cigar.WireBytes of the Cigar the builder would
// return now, from the runs it has counted while encoding — no scan.
func (b *Builder) WireBytes() int {
	runs := b.runs
	if b.lastLen > 0 {
		runs++
	}
	return wireBytesPerRun * runs
}

// Cigar returns the accumulated encoding and resets the builder, which
// keeps its buffer: a reused Builder allocates only the returned string.
func (b *Builder) Cigar() Cigar {
	b.flush()
	c := Cigar(b.buf)
	b.buf = b.buf[:0]
	b.runs, b.lastOp, b.lastLen = 0, 0, 0
	return c
}

// FromRuns encodes a run list canonically (merging adjacent same-op
// runs, skipping empty ones); invalid ops or negative lengths error.
func FromRuns(runs []Run) (Cigar, error) {
	var b Builder
	for _, r := range runs {
		if r.Len < 0 {
			return "", fmt.Errorf("alignment: negative run length %d", r.Len)
		}
		if r.Len == 0 {
			continue
		}
		if !r.Op.Valid() {
			return "", fmt.Errorf("alignment: unknown op %q", byte(r.Op))
		}
		b.Append(r.Op, r.Len)
	}
	return b.Cigar(), nil
}

// Concat joins Cigars in order, merging runs at the junctions.
func Concat(parts ...Cigar) (Cigar, error) {
	var b Builder
	for _, p := range parts {
		if err := b.AppendCigar(p); err != nil {
			return "", err
		}
	}
	return b.Cigar(), nil
}

// ScoreOf recomputes the alignment score a Cigar implies over the two
// concrete aligned fragments: similarity over '='/'X' columns plus
// gapOpen + len·gap per maximal gap run (gapOpen = 0 reproduces the
// linear scheme). It is the independent oracle of the traceback
// subsystem: for a correct traceback the reconstructed score bit-matches
// the score-only kernel.
//
// h and v must be exactly the aligned fragments — the Cigar has to
// consume both completely — and every '='/'X' column must agree with the
// bytes, so a coordinate or operation error surfaces here rather than as
// a silently wrong score.
func ScoreOf(h, v []byte, c Cigar, sc scoring.Scorer, gap, gapOpen int) (int, error) {
	if sc == nil {
		return 0, fmt.Errorf("alignment: ScoreOf requires a scorer")
	}
	tab := sc.Table()
	score, hi, vi := 0, 0, 0
	err := c.scan(func(r Run) error {
		switch r.Op {
		case OpMatch, OpMismatch:
			if hi+r.Len > len(h) || vi+r.Len > len(v) {
				return fmt.Errorf("alignment: cigar %q overruns the aligned fragments (|h|=%d |v|=%d)", c, len(h), len(v))
			}
			for k := 0; k < r.Len; k++ {
				eq := h[hi+k] == v[vi+k]
				if eq != (r.Op == OpMatch) {
					return fmt.Errorf("alignment: cigar %q: %q column %d disagrees with symbols %q/%q",
						c, r.Op, hi+k, h[hi+k], v[vi+k])
				}
				score += int(tab[h[hi+k]][v[vi+k]])
			}
			hi += r.Len
			vi += r.Len
		case OpIns:
			if hi+r.Len > len(h) {
				return fmt.Errorf("alignment: cigar %q overruns the aligned fragments (|h|=%d |v|=%d)", c, len(h), len(v))
			}
			score += gapOpen + r.Len*gap
			hi += r.Len
		case OpDel:
			if vi+r.Len > len(v) {
				return fmt.Errorf("alignment: cigar %q overruns the aligned fragments (|h|=%d |v|=%d)", c, len(h), len(v))
			}
			score += gapOpen + r.Len*gap
			vi += r.Len
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if hi != len(h) || vi != len(v) {
		return 0, fmt.Errorf("alignment: cigar %q consumes %d/%d symbols of fragments sized %d/%d",
			c, hi, vi, len(h), len(v))
	}
	return score, nil
}

// Alignment is one comparison's full traceback outcome in sequence
// coordinates: the aligned region [BegH,EndH)×[BegV,EndV) and the edit
// operations over it.
type Alignment struct {
	// Score is the total alignment score (left + seed + right).
	Score int
	// BegH/BegV are inclusive starts; EndH/EndV exclusive ends.
	BegH, BegV, EndH, EndV int
	// Cigar covers exactly the aligned region.
	Cigar Cigar
}

// Identity is the fraction of '=' columns (0 for an empty alignment).
func (a Alignment) Identity() float64 { return a.Cigar.Identity() }

// Validate checks the structural invariants: well-formed canonical
// Cigar, ordered non-negative coordinates, and operation spans that
// consume exactly the reported query/target spans.
func (a Alignment) Validate() error {
	st, err := a.Cigar.Stats()
	if err != nil {
		return err
	}
	if a.BegH < 0 || a.BegV < 0 || a.BegH > a.EndH || a.BegV > a.EndV {
		return fmt.Errorf("alignment: bad span [%d,%d)x[%d,%d)", a.BegH, a.EndH, a.BegV, a.EndV)
	}
	if st.SpanH != a.EndH-a.BegH || st.SpanV != a.EndV-a.BegV {
		return fmt.Errorf("alignment: cigar %q spans %dx%d, alignment reports %dx%d",
			a.Cigar, st.SpanH, st.SpanV, a.EndH-a.BegH, a.EndV-a.BegV)
	}
	return nil
}
