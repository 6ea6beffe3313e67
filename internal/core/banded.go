package core

import "github.com/sram-align/xdropipu/internal/scoring"

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
