//go:build amd64 && !purego

package core

import "github.com/sram-align/xdropipu/internal/scoring"

// rowVec reports whether linearSweep may hand whole vectors of an int32
// row to rowLinearVec: the CPU has AVX2 and the OS saves the YMM state.
// Decided once at init; it selects machine code, never results.
var rowVec = hasAVX2()

func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS restores XMM and YMM registers.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// rowLinearVec is the linear-gap row body of linearSweep over n int32
// interior cells, n a positive multiple of rowLanes, eight cells per
// instruction. The pointers address cell 0 of the row: out[k] is written;
// d2[k−1] (wlast for k = 0) is the diagonal predecessor, d1[k−1] and d1[k]
// the gap predecessors, tab[hq[k]][vq[k]] the similarity. out may alias
// d2 shifted left by zero or more cells (the in-place layout). It returns
// the row maximum and the carry d2[n−1] as it was before the row was
// stored — wlast for cell n. It reads d2 up to rowSlack elements past
// cell n−1 and never reads hq or vq past byte n−1.
//
//go:noescape
func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best, carry int32)

// rowCodesVec is the recording sweep's row body: rowLinearVec's arithmetic
// over any n ≥ rowLanes cells, also storing cell k's direction code
// (codeNone/Diag/Up/Left by fusedLinear's rule) in codes[k]. out must
// alias neither d2 nor d1: a row that is not whole vectors ends with one
// vector recomputed over cells [n−rowLanes, n). Reads are bounded like
// rowLinearVec's; it returns the row maximum.
//
//go:noescape
func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32, codes *byte) (best int32)
