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
func ExtendRight(h, v []byte, hOff, vOff int, p Params) Result {
	var w Workspace
	return w.ExtendRight(h, v, hOff, vOff, p)
}

// ExtendRight is the workspace-reusing form of the package function.
func (w *Workspace) ExtendRight(h, v []byte, hOff, vOff int, p Params) Result {
	return w.align(NewView(h[hOff:]), NewView(v[vOff:]), p)
}

// ExtendLeft extends an alignment leftwards from (hOff, vOff): it aligns
// the reversed prefixes h[:hOff] and v[:vOff]. No copy is made — the
// op(·) index transformation of §4.1.1 reads the prefixes backwards in
// place.
func ExtendLeft(h, v []byte, hOff, vOff int, p Params) Result {
	var w Workspace
	return w.ExtendLeft(h, v, hOff, vOff, p)
}

// ExtendLeft is the workspace-reusing form of the package function.
func (w *Workspace) ExtendLeft(h, v []byte, hOff, vOff int, p Params) Result {
	return w.align(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p)
}

// align resolves the tier for one extension and runs p.Algo's score
// sweep at that width.
func (w *Workspace) align(hv, vv View, p Params) Result {
	if !useNarrow(hv.Len(), vv.Len(), p) {
		return w.sweepWide(hv, vv, p)
	}
	if r, ok := w.sweepNarrow(hv, vv, p); ok {
		return r
	}
	// The narrow attempt saturated int16: discard it wholesale and
	// transparently re-run on the wide tier (the promotion contract of
	// tier.go). The result and stats are the wide run's.
	r := w.sweepWide(hv, vv, p)
	r.Stats.Promoted = true
	return r
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
