//go:build amd64 && !purego

package core

// rowVec reports whether the linear sweeps may run an int32 extension in
// the assembly of row_amd64.s — the score sweep whole (sweepLinearVec), the
// recording sweep row by row (rowCodesVec): the CPU has AVX2 and the OS
// saves the YMM state. The assembly uses nothing beyond AVX2: its bit scans
// are BSF/BSR on values it knows are non-zero, not BMI's TZCNT/LZCNT, and
// the recording row packs its direction codes with VPMOVMSKB and shifts
// them into place with IMUL and SHL by CL, not BMI2's PEXT or SHLX.
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

// sweepLinearVec runs antidiagonals of linearSweep's int32 loop from st,
// in either layout, until the extension ends (st.done) or st.rows of them
// are computed; the caller re-enters it until done. A row is ⌈width/8⌉
// vectors: whole ones while more than eight cells are left, then one
// masked tail of one to eight cells.
//
// Memory contract (TestSweepKernelMatchesGeneric runs it with every buffer
// flush against an unmapped page, at its end and at its start):
//
//   - Score buffers (st.d1, st.d2, st.out; out aliases d2 in place) are
//     growBuf's: capacity cells between bufPad guards, rowSlack spare cells
//     behind. It writes what linearSweep's Go loop writes — a row's cells
//     from index bufPad and the two guard pairs around them — and nothing
//     else: the tail is stored through its lane mask. It reads from index
//     bufPad−1 (d−2's diagonal of the row's first cell) up to the end of
//     the spare cells, because every load is a whole vector; lanes past a
//     row become −∞ before they can reach a cell, the row maximum or the
//     live bounds.
//   - Operands (st.hq, st.vq) are Workspace.operands': it reads hq[−1:m+7]
//     and vq[0:n+8], inside the seqPad bytes staged around both, and
//     writes neither.
//   - Of *st it reads the constants and rewrites the rest.
//
//go:noescape
func sweepLinearVec(st *sweepState)

// rowCodesVec is the recording sweep's row body, one call per antidiagonal
// — the tracer's window index between rows is Go — over the n ≥ 1 interior
// cells fusedLinear's peeled boundaries leave: ⌊n/8⌋ whole vectors, then
// one masked tail over the n&7 cells left. The score pointers address cell
// 0 of the row: out[k] is written, d2[k−1] (wlast for k = 0) is the
// diagonal predecessor, d1[k−1] and d1[k] the gap predecessors, and sim
// says how Sim(hq[k], vq[k]) is obtained (rowSim). Cell k's direction code
// (codeNone/Diag/Up/Left by fusedLinear's rule) is stored packed, as
// tracer.setCode would store it at dirs cell cell+k: dirs is the tracer's
// dirs[0] and cell the row's first cell offset in it. It returns the row
// maximum.
//
// Memory contract (TestRowCodesKernelMatchesGeneric places every operand
// flush against an unmapped page, and dirs at both ends): it writes
// out[0:n] and the dirs bytes [cell>>2, (cell+n−1)>>2] and nothing else —
// of those bytes only the bits of cells cell … cell+n−1 change, the first
// and last byte being read back for the others; it reads d1[−1:n],
// hq[0:n] and vq[0:n] and nothing else; and it reads d2 from d2[−1] up to
// rowSlack elements past d2[n−1], because a vector's diagonal operand is
// loaded whole.
//
//go:noescape
func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32, dirs *byte, cell int) (best int32)
