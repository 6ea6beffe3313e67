//go:build amd64 && !purego

package core

// rowVec reports whether the linear sweeps may hand the rows of an int32
// extension to rowLinearVec / rowCodesVec: the CPU has AVX2 and the OS
// saves the YMM state. Decided once at init; it selects machine code,
// never results.
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

// rowLinearVec is the linear-gap row body of linearSweep over n ≥ 1 int32
// interior cells, eight cells per instruction: ⌊n/8⌋ whole vectors, then one
// masked tail vector over the n&7 cells left. The pointers address cell 0
// of the row: out[k] is written; d2[k−1] (wlast for k = 0) is the diagonal
// predecessor, d1[k−1] and d1[k] the gap predecessors, and sim says how
// Sim(hq[k], vq[k]) is obtained (rowSim). out may alias d2 shifted left by
// zero or more cells (the in-place layout). It returns the row maximum.
//
// Memory contract (TestRowKernelMatchesGeneric places every operand flush
// against an unmapped page): it writes out[0:n] and nothing else; it reads
// d1[−1:n], hq[0:n] and vq[0:n] and nothing else; and it reads d2 from
// d2[−1] up to rowSlack elements past d2[n−1], because a vector's diagonal
// operand is loaded whole.
//
//go:noescape
func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32) (best int32)

// rowCodesVec is the recording sweep's row body: rowLinearVec's arithmetic
// and memory contract, also storing cell k's direction code
// (codeNone/Diag/Up/Left by fusedLinear's rule) in codes[k] — codes[0:n]
// and nothing else. It returns the row maximum.
//
//go:noescape
func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32, codes *byte) (best int32)
