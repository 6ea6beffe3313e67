package xdropipu_test

import (
	"slices"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// The X-Drop oracle that TestInvariantLattice and FuzzXDropOracle hold the
// system to. It is written from the definition (arXiv 2304.08662 §3), not
// from internal/core: it imports nothing of core and shares only the
// scoring table. It is deliberately naive, a full (m+1)×(n+1) matrix
// filled one cell at a time:
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

// unpruned is the X that drops nothing.
const unpruned = -1

// oracleEnd is one extension's best cell: its score, the symbols of h and
// v it consumes, and whether it is tied — another live cell scores as
// high, or two optimal paths reach it.
type oracleEnd struct {
	score, endH, endV int
	tied              bool
}

// oracleExtend aligns h against v from their first symbols.
func oracleExtend(h, v []byte, tab *scoring.PairTable, gap, x int) oracleEnd {
	m, n := len(h), len(v)
	stride := n + 1 // cell (i, j) is element i·stride + j
	score := make([]int32, (m+1)*stride)
	paths := make([]uint8, len(score)) // 0 for a dropped or never computed cell
	paths[0] = 1
	var best oracleEnd
	lo, hi := 0, 0
	for d := 1; d <= m+n; d++ {
		t := best.score
		nlo, nhi := -1, -1
		for i := max(lo, d-n); i <= min(hi+1, d, m); i++ {
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
			if w == 0 || (x != unpruned && s < t-x) {
				continue
			}
			score[cell], paths[cell] = int32(s), w
			if nlo < 0 {
				nlo = i
			}
			nhi = i
			if s > best.score {
				best = oracleEnd{score: s, endH: i, endV: j, tied: w > 1}
			} else if s == best.score {
				best.tied = true
			}
		}
		if nlo < 0 {
			break
		}
		lo, hi = nlo, nhi
	}
	return best
}

// oracleAlignment is a seed extension: the two extension scores, the
// total with the seed's own columns, the aligned region, and whether
// either extension's best cell is tied.
type oracleAlignment struct {
	score, left, right     int
	begH, begV, endH, endV int
	tied                   bool
}

// oracleSeed extends the k-symbol seed at (seedH, seedV) both ways. The
// left extension aligns the prefixes read backwards, so it runs on
// reversed copies of them.
func oracleSeed(h, v []byte, seedH, seedV, k int, tab *scoring.PairTable, gap, x int) oracleAlignment {
	reversed := func(s []byte) []byte {
		s = slices.Clone(s)
		slices.Reverse(s)
		return s
	}
	l := oracleExtend(reversed(h[:seedH]), reversed(v[:seedV]), tab, gap, x)
	r := oracleExtend(h[seedH+k:], v[seedV+k:], tab, gap, x)
	seed := 0
	for i := range k {
		seed += int(tab[h[seedH+i]][v[seedV+i]])
	}
	return oracleAlignment{
		score: l.score + seed + r.score, left: l.score, right: r.score,
		begH: seedH - l.endH, begV: seedV - l.endV,
		endH: seedH + k + r.endH, endV: seedV + k + r.endV,
		tied: l.tied || r.tied,
	}
}
