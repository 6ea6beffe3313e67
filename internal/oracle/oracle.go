// Package oracle is the X-Drop extension the system is held to. It is
// written from the definition (arXiv 2304.08662 §3), not from
// internal/core: it imports nothing of core and shares only the scoring
// table (its own test enforces that). It is deliberately naive, a full
// (m+1)×(n+1) matrix filled one cell at a time:
//
//   - Antidiagonal d computes the cells i ∈ [L(d−1), U(d−1)+1] that lie in
//     the matrix, where L and U bound the live cells of antidiagonal d−1.
//   - A cell is dropped when it scores below T − X, where T is the best
//     score on the antidiagonals before d. A dropped cell, like one never
//     computed, is −∞: no path continues through it.
//   - The sweep stops at the first antidiagonal with no live cell.
//   - The result is the first maximal cell in (d, i) order.
//
// Beside each score the matrix counts, up to two, the optimal paths from
// the origin, so the result can say whether it is the one best cell and
// reached by one path — the case where any traceback must walk exactly
// that path.
package oracle

import (
	"slices"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// Unpruned is the X that drops nothing.
const Unpruned = -1

// Span is the cells i ∈ [Lo, Hi] of one antidiagonal; Hi < Lo is empty.
type Span struct{ Lo, Hi int }

// Width counts the span's cells.
func (s Span) Width() int { return max(0, s.Hi-s.Lo+1) }

// End is one extension's best cell: its score, the symbols of h and v it
// consumes, and whether it is tied — another live cell scores as high, or
// two optimal paths reach it.
type End struct {
	Score, EndH, EndV int
	Tied              bool
	// Computed and Live hold one span per antidiagonal swept, the
	// origin's (d = 0) first: the cells computed,
	// [max(L, d−n), min(U+1, d, m)], and the live cells among them. The
	// last antidiagonal's Live is empty when the sweep died there.
	Computed, Live []Span
}

// Extend aligns h against v from their first symbols.
func Extend(h, v []byte, tab *scoring.PairTable, gap, x int) End {
	m, n := len(h), len(v)
	stride := n + 1 // cell (i, j) is element i·stride + j
	score := make([]int32, (m+1)*stride)
	paths := make([]uint8, len(score)) // 0 for a dropped or never computed cell
	paths[0] = 1
	best := End{Computed: []Span{{0, 0}}, Live: []Span{{0, 0}}}
	lo, hi := 0, 0
	for d := 1; d <= m+n; d++ {
		t := best.Score
		computed := Span{max(lo, d-n), min(hi+1, d, m)}
		if computed.Width() == 0 {
			break
		}
		live := Span{0, -1}
		for i := computed.Lo; i <= computed.Hi; i++ {
			j := d - i
			cell := i*stride + j
			s, w := 0, uint8(0)
			from := func(exists bool, pred, delta int) {
				if !exists || paths[pred] == 0 {
					return
				}
				switch c := int(score[pred]) + delta; {
				case w == 0 || c > s:
					s, w = c, paths[pred]
				case c == s:
					w = min(2, w+paths[pred])
				}
			}
			if i > 0 && j > 0 {
				from(true, cell-stride-1, int(tab[h[i-1]][v[j-1]]))
			}
			from(i > 0, cell-stride, gap)
			from(j > 0, cell-1, gap)
			if w == 0 || (x != Unpruned && s < t-x) {
				continue
			}
			score[cell], paths[cell] = int32(s), w
			if live.Width() == 0 {
				live.Lo = i
			}
			live.Hi = i
			if s > best.Score {
				best.Score, best.EndH, best.EndV, best.Tied = s, i, j, w > 1
			} else if s == best.Score {
				best.Tied = true
			}
		}
		best.Computed = append(best.Computed, computed)
		best.Live = append(best.Live, live)
		if live.Width() == 0 {
			break
		}
		lo, hi = live.Lo, live.Hi
	}
	return best
}

// Alignment is a seed extension: the two extension scores, the total with
// the seed's own columns, the aligned region, and whether either
// extension's best cell is tied.
type Alignment struct {
	Score, Left, Right     int
	BegH, BegV, EndH, EndV int
	Tied                   bool
}

// Seed extends the k-symbol seed at (seedH, seedV) both ways. The left
// extension aligns the prefixes read backwards, so it runs on reversed
// copies of them.
func Seed(h, v []byte, seedH, seedV, k int, tab *scoring.PairTable, gap, x int) Alignment {
	reversed := func(s []byte) []byte {
		s = slices.Clone(s)
		slices.Reverse(s)
		return s
	}
	l := Extend(reversed(h[:seedH]), reversed(v[:seedV]), tab, gap, x)
	r := Extend(h[seedH+k:], v[seedV+k:], tab, gap, x)
	seed := 0
	for i := range k {
		seed += int(tab[h[seedH+i]][v[seedV+i]])
	}
	return Alignment{
		Score: l.Score + seed + r.Score, Left: l.Score, Right: r.Score,
		BegH: seedH - l.EndH, BegV: seedV - l.EndV,
		EndH: seedH + k + r.EndH, EndV: seedV + k + r.EndV,
		Tied: l.Tied || r.Tied,
	}
}
