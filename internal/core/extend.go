package core

import "fmt"

// Seed identifies a k-mer match between two sequences: the start offsets
// of the shared k-mer on each sequence and its length. It is the unit the
// overlap-detection stages of ELBA and PASTIS emit (§2.3, §2.4).
type Seed struct {
	// H and V are the seed start offsets on the two sequences.
	H, V int
	// Len is the seed (k-mer) length.
	Len int
}

// SeedResult is the outcome of a two-sided seed extension: the alignment
// is forced through the seed and extended left and right with X-Drop
// (semi-global: the seed-side extremity is anchored, the far side free).
type SeedResult struct {
	// Score is LeftScore + seed score + RightScore.
	Score int
	// LeftScore and RightScore are the two extension scores.
	LeftScore, RightScore int
	// BegH, BegV are the alignment start offsets (inclusive).
	BegH, BegV int
	// EndH, EndV are the alignment end offsets (exclusive).
	EndH, EndV int
	// Stats merges both extensions' traces.
	Stats Stats
}

// ExtendRight extends an alignment rightwards from (hOff, vOff): it aligns
// h[hOff:] against v[vOff:] with the selected X-Drop variant.
func (w *Workspace) ExtendRight(h, v []byte, hOff, vOff int, p Params) Result {
	var r Result
	w.align(NewView(h[hOff:]), NewView(v[vOff:]), &p, &r)
	return r
}

// ExtendLeft extends an alignment leftwards from (hOff, vOff): it aligns
// the reversed prefixes h[:hOff] and v[:vOff]. No copy is made — the
// op(·) index transformation of §4.1.1 reads the prefixes backwards in
// place.
func (w *Workspace) ExtendLeft(h, v []byte, hOff, vOff int, p Params) Result {
	var r Result
	w.align(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), &p, &r)
	return r
}

// Side is one seed extension of a batch (ExtendBatch): rightwards from
// (HOff, VOff), h[HOff:] against v[VOff:] as ExtendRight aligns them, or
// with Left set leftwards, the reversed prefixes h[:HOff] and v[:VOff] as
// ExtendLeft aligns them.
type Side struct {
	H, V       []byte
	HOff, VOff int
	Left       bool
}

// views returns the side's operands in the views ExtendLeft or ExtendRight
// takes them in.
func (s *Side) views() (h, v View) {
	if s.Left {
		return NewReversedView(s.H[:s.HOff]), NewReversedView(s.V[:s.VOff])
	}
	return NewView(s.H[s.HOff:]), NewView(s.V[s.VOff:])
}

// ExtendBatch runs the score extension of every side under p and writes
// its Result to out[i], the one ExtendLeft or ExtendRight returns for that
// side alone. On the resident sweep (rowVec: Restricted2 and Standard3)
// the sides run as one queue on two interleaved lanes (sweepBatch);
// otherwise — affine, a build without the assembly — each runs through
// align on its own.
func (w *Workspace) ExtendBatch(p *Params, sides []Side, out []Result) {
	out = out[:len(sides)]
	if rowVec && p.Algo != AlgoAffine {
		if len(sides) > 0 {
			w.sweepBatch(p, sides, out)
		}
		return
	}
	for i := range sides {
		h, v := sides[i].views()
		w.align(h, v, p, &out[i])
	}
}

// align runs p.Algo's score sweep for one extension into *res and derives
// its tier outcome (narrowOutcome). The chain below it takes p and res by
// pointer, so an extension copies neither on its way to the kernel.
func (w *Workspace) align(hv, vv View, p *Params, res *Result) {
	w.sweep(hv, vv, p, res)
	narrowOutcome(hv.Len(), vv.Len(), p, res)
}

// SeedScore sums the similarity over the seed region. For an exact k-mer
// match under a simple scheme this is Len×match.
func SeedScore(h, v []byte, s Seed, p Params) int {
	tab := p.Scorer.Table()
	total := 0
	for k := 0; k < s.Len; k++ {
		total += int(tab[h[s.H+k]][v[s.V+k]])
	}
	return total
}

// ExtendSeed runs the full seed-and-extend alignment of §4.1.1: a left
// extension from the seed start, the seed itself, and a right extension
// from the seed end.
func ExtendSeed(h, v []byte, s Seed, p Params) (SeedResult, error) {
	var w Workspace
	return w.ExtendSeed(h, v, s, p)
}

// ExtendSeed is the workspace-reusing form of the package function.
func (w *Workspace) ExtendSeed(h, v []byte, s Seed, p Params) (SeedResult, error) {
	if s.Len <= 0 || s.H < 0 || s.V < 0 || s.H+s.Len > len(h) || s.V+s.Len > len(v) {
		return SeedResult{}, fmt.Errorf("core: seed %+v out of range for |h|=%d |v|=%d", s, len(h), len(v))
	}
	left := w.ExtendLeft(h, v, s.H, s.V, p)
	right := w.ExtendRight(h, v, s.H+s.Len, s.V+s.Len, p)
	out := SeedResult{
		Score:      left.Score + SeedScore(h, v, s, p) + right.Score,
		LeftScore:  left.Score,
		RightScore: right.Score,
		BegH:       s.H - left.EndH,
		BegV:       s.V - left.EndV,
		EndH:       s.H + s.Len + right.EndH,
		EndV:       s.V + s.Len + right.EndV,
	}
	out.Stats = left.Stats
	out.Stats.add(right.Stats)
	return out, nil
}
