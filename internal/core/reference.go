package core

import "github.com/sram-align/xdropipu/internal/scoring"

// Matrix is a fully materialised DP matrix produced by ReferenceMatrix.
// It exists for testing and for rendering the paper's search-space figures
// (Fig. 2); production code paths never allocate it.
type Matrix struct {
	M, N     int
	scores   []int  // (M+1)×(N+1), row-major over i
	computed []bool // cells visited by the antidiagonal sweep
}

// Score returns the DP score at (i, j), NegInf if pruned or not computed.
func (mx *Matrix) Score(i, j int) int { return mx.scores[i*(mx.N+1)+j] }

// Computed reports whether the sweep visited cell (i, j).
func (mx *Matrix) Computed(i, j int) bool { return mx.computed[i*(mx.N+1)+j] }

// ComputedCells counts visited cells (the gray area of Fig. 2).
func (mx *Matrix) ComputedCells() int {
	n := 0
	for _, c := range mx.computed {
		if c {
			n++
		}
	}
	return n
}

// Reference runs the full-matrix X-Drop oracle. Identical window semantics
// to Standard3, but with every antidiagonal retained. O(mn) memory — test
// and figure use only.
func Reference(h, v View, p Params) Result {
	_, res := ReferenceMatrix(h, v, p)
	return res
}

// ReferenceMatrix runs the oracle and returns the materialised matrix
// together with the result.
func ReferenceMatrix(h, v View, p Params) (*Matrix, Result) {
	m, n := h.Len(), v.Len()
	mx := &Matrix{
		M:        m,
		N:        n,
		scores:   make([]int, (m+1)*(n+1)),
		computed: make([]bool, (m+1)*(n+1)),
	}
	for i := range mx.scores {
		mx.scores[i] = NegInf
	}
	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        (m + 1) * (n + 1) * 4,
	}}

	tab := p.Scorer.Table()
	gap := p.Gap
	stride := n + 1
	set := func(i, j, s int) {
		mx.scores[i*stride+j] = s
		mx.computed[i*stride+j] = true
	}
	at := func(i, j int) int { return mx.scores[i*stride+j] }

	set(0, 0, 0)
	var acc statAcc
	acc.observe(1, 1)

	best, bestI, bestD := 0, 0, 0
	t := 0
	lo, hi := 0, 0 // live window of the previous antidiagonal

	for d := 1; d <= m+n; d++ {
		cl := max(lo, max(0, d-n))
		cu := min(hi+1, min(d, m))
		if cl > cu {
			break
		}
		rowBest, rowBestI := NegInf, -1
		lo, hi = -1, -1
		for i := cl; i <= cu; i++ {
			j := d - i
			s := NegInf
			if i > 0 && j > 0 {
				s = at(i-1, j-1) + int(tab[h.At(i-1)][v.At(j-1)])
			}
			if i > 0 {
				if g := at(i-1, j) + gap; g > s {
					s = g
				}
			}
			if j > 0 {
				if g := at(i, j-1) + gap; g > s {
					s = g
				}
			}
			if s < t-p.X {
				s = NegInf
			} else {
				if lo < 0 {
					lo = i
				}
				hi = i
				if s > rowBest {
					rowBest, rowBestI = s, i
				}
			}
			set(i, j, s)
		}
		liveW := 0
		if lo >= 0 {
			liveW = hi - lo + 1
		}
		acc.observe(cu-cl+1, liveW)
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
	}

	acc.flush(&res.Stats)
	res.Score = best
	res.EndH = bestI
	res.EndV = bestD - bestI
	return mx, res
}

// SemiGlobalFull computes the plain semi-global DP (no X-Drop pruning,
// no windowing) row-major in O(n) memory and returns the best cell score.
// It is the absolute ground truth: Reference with X→∞ must match it.
func SemiGlobalFull(h, v View, sc scoring.Scorer, gap int) Result {
	m, n := h.Len(), v.Len()
	tab := sc.Table()
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	best, bestI, bestJ := 0, 0, 0
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + gap
		if prev[j] > best {
			best, bestI, bestJ = prev[j], 0, j
		}
	}
	for i := 1; i <= m; i++ {
		cur[0] = prev[0] + gap
		if cur[0] > best {
			best, bestI, bestJ = cur[0], i, 0
		}
		for j := 1; j <= n; j++ {
			s := prev[j-1] + int(tab[h.At(i-1)][v.At(j-1)])
			if g := prev[j] + gap; g > s {
				s = g
			}
			if g := cur[j-1] + gap; g > s {
				s = g
			}
			cur[j] = s
			if s > best {
				best, bestI, bestJ = s, i, j
			}
		}
		prev, cur = cur, prev
	}
	return Result{
		Score: best,
		EndH:  bestI,
		EndV:  bestJ,
		Stats: Stats{
			Antidiagonals:    m + n + 1,
			Cells:            int64(m+1)*int64(n+1) - 1,
			TheoreticalCells: int64(m) * int64(n),
		},
	}
}

// Banded computes a classic static-band semi-global alignment (Fig. 1,
// left): only cells with |i−j| ≤ halfWidth are filled. It exists to
// demonstrate why the X-Drop dynamic band is preferable for long-read
// data (experiment E12).
func Banded(h, v View, halfWidth int, sc scoring.Scorer, gap int) Result {
	m, n := h.Len(), v.Len()
	tab := sc.Table()
	width := 2*halfWidth + 1
	// Row-major with a band offset: row i holds columns
	// [i−halfWidth, i+halfWidth] at positions j−(i−halfWidth).
	prev := make([]int, width)
	cur := make([]int, width)
	for k := range prev {
		prev[k] = NegInf
	}
	var cells int64
	best, bestI, bestJ := 0, 0, 0
	// Row 0.
	for j := 0; j <= min(n, halfWidth); j++ {
		prev[j+halfWidth] = j * gap
		cells++
	}
	for i := 1; i <= m; i++ {
		for k := range cur {
			cur[k] = NegInf
		}
		jloA := max(0, i-halfWidth)
		jhiA := min(n, i+halfWidth)
		for j := jloA; j <= jhiA; j++ {
			k := j - (i - halfWidth)
			s := NegInf
			if j == 0 {
				if i <= halfWidth {
					s = i * gap
				}
			}
			// prev row i−1 has offset i−1−halfWidth: column j is at
			// index j−(i−1−halfWidth) = k+1; column j−1 at k.
			if j > 0 {
				if dpd := prev[k]; dpd > NegInf/2 {
					if x := dpd + int(tab[h.At(i-1)][v.At(j-1)]); x > s {
						s = x
					}
				}
				if k-1 >= 0 {
					if g := cur[k-1]; g > NegInf/2 && g+gap > s {
						s = g + gap
					}
				}
			}
			if k+1 < width {
				if g := prev[k+1]; g > NegInf/2 && g+gap > s {
					s = g + gap
				}
			}
			cur[k] = s
			cells++
			if s > best {
				best, bestI, bestJ = s, i, j
			}
		}
		prev, cur = cur, prev
	}
	return Result{
		Score: best,
		EndH:  bestI,
		EndV:  bestJ,
		Stats: Stats{
			Antidiagonals:    m + 1,
			Cells:            cells,
			MaxLiveBand:      width,
			TheoreticalCells: int64(m) * int64(n),
			WorkBytes:        2 * width * 4,
		},
	}
}
