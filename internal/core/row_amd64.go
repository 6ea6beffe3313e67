//go:build amd64 && !purego

package core

// rowVec reports whether the linear sweeps may run an int32 extension in
// the assembly of row_amd64.s — the score sweep and the recording sweep
// alike, whole, in sweepLinearVec: the CPU has AVX2 and the OS saves the
// YMM state. The assembly uses nothing beyond AVX2: its bit scans are
// BSF/BSR on values it knows are non-zero, not BMI's TZCNT/LZCNT, and the
// recording rows pack their direction codes with VPMOVMSKB and shift them
// into place with IMUL and SHL by CL, not BMI2's PEXT or SHLX
// (TestRowAssemblyStaysInAVX2 holds the file to an AVX2 allowlist).
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
// are computed; the caller re-enters it until done (sweepState.call). It
// reads the loop state from st at entry, keeps it in registers, and writes
// it back — st.rows becoming the rows it left — when it returns. A row is ⌈width/8⌉
// vectors: whole ones while more than eight cells are left, then one
// masked tail of one to eight cells. With st.record set the rows are
// fusedLinear's, three buffers rotating, and each also records (see
// sweepState): it returns early, before a row, when that row would end
// past st.cellEnd.
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
//   - Recording (TestRowCodesKernelMatchesGeneric, and the recording
//     checks of TestSweepKernelMatchesGeneric, place dirs flush against an
//     unmapped page at either end): it writes cls[d] and offs[d+1] of every
//     row it computes and the code stream's whole bytes from dirs[dirb]
//     on, never a byte past the one holding cell cellEnd−1 — the last part
//     byte stays in carry — and it reads offs[d].
//   - Of *st it reads the constants and rewrites the rest; the counters in
//     st.acc it adds to.
//
//go:noescape
func sweepLinearVec(st *sweepState)
