package core

import (
	"encoding/binary"
	"math"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// The DP sweeps are written once, generic over the score width: int32
// (the wide tier) or int16 (the narrow tier, see tier.go). The two widths
// have distinct GC shapes, so each instantiation is fully specialised
// machine code — there is no per-cell dictionary cost.
//
// The paper models 4-byte scores (Stats.WorkBytes, §3) and the IPU stores
// them that way, so the wide tier's working set matches the device — it
// also halves cache pressure versus 8-byte ints, which is most of the
// kernels' memory traffic.
//
// int32 bounds the representable alignment score to ±2^29-ish (scores are
// kept above negInf32/2, see pruneLimit); with per-symbol scores ≤ 127
// that covers sequences of a few million symbols per extension, far
// beyond anything a 624 KB tile can hold.

// score is the set of working-buffer element types.
type score interface{ int16 | int32 }

// negInf32 is the pruned-cell sentinel of the wide working buffers. It is
// far enough from the int32 minimum that adding similarity scores or gap
// penalties cannot wrap.
const negInf32 int32 = math.MinInt32 / 4

// scoreBytes is the wide working-buffer element size; the sweeps compute
// Stats.WorkBytes from the element size of the buffers they actually
// hold, so the modeled footprint matches the real buffers.
const scoreBytes = 4

// bufPad is the number of −∞ guard cells kept on each side of a stored
// antidiagonal window. A row d reads its predecessors at most one (d−1)
// or two (d−2) cells beyond their computed windows — the guards answer
// those reads with −∞ directly, eliminating the per-neighbor window
// bounds checks the old adiag.at performed in the inner loop.
const bufPad = 2

// seedDiag initialises a buffer to the one-cell window {0: v} with its
// guards — the state of antidiagonal 0 (or, with v = negInf, the
// placeholder for the not-yet-existing antidiagonal −1).
func seedDiag[S score](b []S, v, negInf S) {
	b[0], b[1], b[2], b[3], b[4] = negInf, negInf, v, negInf, negInf
}

// setGuards writes the −∞ guard cells around a freshly computed window of
// the given width. O(1) per antidiagonal; it is what lets the inner loops
// read neighbors without window checks.
func setGuards[S score](buf []S, width int, negInf S) {
	buf[0], buf[1] = negInf, negInf
	buf[width+bufPad], buf[width+bufPad+1] = negInf, negInf
}

// rowLanes is the width of the assembly's vectors (row_amd64.s) in int32
// cells.
const rowLanes = 8

// rowSlack is the spare capacity (not length — the modeled footprint
// counts len) growBuf keeps behind every score buffer. The assembly
// (row_amd64.s) loads its operands a whole vector at a time — a diagonal
// operand before it stores the vector in front of it, the last vector of a
// row whatever the row's length — which reads up to rowSlack elements past
// a stored row's upper guards.
const rowSlack = rowLanes - 1

// rowSim tells the assembly how to obtain Sim(h, v) for eight cells at
// once. Scorers that are a match/mismatch scheme (scoring.Simple:
// every DNA workload of the paper) get it from one byte compare,
//
//	h == v && h != wildcard ? match : mismatch
//
// which is what their table holds, entry for entry
// (scoring.TestSimpleTableIsMatchMismatch); any other scorer (BLOSUM62)
// keeps tab and is gathered, tab[h][v], eight scalar loads. The assembly
// reads the fields through go_asm.h and takes tab == nil for the compare
// form.
type rowSim struct {
	tab             *scoring.PairTable
	match, mismatch int32
	wildcard        byte
}

// rowSimOf resolves a scorer's similarity form, once per extension. The
// choice is the scorer's own type — there is nothing to configure — and it
// selects machine code, never results.
func rowSimOf(s scoring.Scorer) rowSim {
	if mm, ok := s.(*scoring.Simple); ok {
		match, mismatch, wild := mm.MatchMismatch()
		return rowSim{match: int32(match), mismatch: int32(mismatch), wildcard: wild}
	}
	return rowSim{tab: s.Table()}
}

// RowISA names the body this process runs for the linear int32 sweeps:
// "avx2" (row_amd64.s) or "generic" (the Go loops). Results are
// bit-identical either way.
func RowISA() string {
	if rowVec {
		return "avx2"
	}
	return "generic"
}

// growBuf returns a buffer holding n window cells plus the guards (and
// rowSlack spare capacity), reusing b's storage when it is large enough.
func growBuf[S score](b []S, n int) []S {
	n += 2 * bufPad
	if cap(b) >= n+rowSlack {
		return b[:n]
	}
	return make([]S, n, n+rowSlack)
}

// firstEq returns the index of the first cell of row holding v, which the
// caller knows is there: v is the maximum of that stored row, recovered
// only when its position is needed — the row sets a new best, or the δb
// clamp re-centres on it — with the first-wins tie-breaking of a scalar
// best chain.
func firstEq[S score](row []S, v S) int {
	k := 0
	for row[k] != v {
		k++
	}
	return k
}

// pruneLimit returns the X-Drop cutoff T−X for the current antidiagonal,
// clamped so that a pruned cell (negInf) plus any per-symbol score still
// compares below it — i.e. pruned cells can never resurrect, even for
// enormous X. On the narrow tier the clamp never engages: narrowEligible
// keeps T−X ≥ −maxNarrowX > negInf16/2, so the limit is the same integer
// at both widths (see the bit-identity contract in tier.go).
func pruneLimit[S score](t S, x int, negInf S) S {
	l := int(t) - x
	if l < int(negInf)/2 {
		return negInf / 2
	}
	return S(l)
}

// seqPad is the number of pad bytes staged on each side of a sweep-order
// operand: the boundary cells of a row read hq[−1] and vq[n] through the
// general recurrence (see linearSweep), and a row's last vector loads
// rowLanes bytes whatever the row's length.
const seqPad = rowLanes

// operands resolves the view directions once per extension into the two
// byte streams every sweep reads unit-stride upward along an antidiagonal:
// hq[i−1] is column i's h symbol and vq[n−d+i] is the v symbol of cell
// (i, d−i) — h in view order, v in reversed view order. Both are staged in
// the workspace between seqPad zero bytes (forward/forward views reverse
// v, reversed/reversed reverse h; the other is copied), so the returned
// slices may be read seqPad bytes beyond either end. The copy is host-side
// staging like the bufPad guards: it is not part of Stats.WorkBytes or the
// SRAM model, where op(·) stays the index transformation of §4.1.1.
func (w *Workspace) operands(h, v View) (hq, vq []byte) {
	w.hq, hq = stage(w.hq, h.data, h.rev)
	w.vq, vq = stage(w.vq, v.data, !v.rev)
	return hq, vq
}

// stage copies src — reversed or not, eight bytes per step — into buf
// between two runs of seqPad zero bytes, reusing buf's storage when it is
// large enough. It returns the buffer and the copy inside it.
func stage(buf, src []byte, reverse bool) (_, seq []byte) {
	n := len(src)
	if cap(buf) < n+2*seqPad {
		buf = make([]byte, n+2*seqPad)
	}
	buf = buf[:n+2*seqPad]
	clear(buf[:seqPad])
	clear(buf[seqPad+n:])
	seq = buf[seqPad : seqPad+n]
	if !reverse {
		copy(seq, src)
		return buf, seq
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(seq[i:], binary.BigEndian.Uint64(src[n-8-i:]))
	}
	for ; i < n; i++ {
		seq[i] = src[n-1-i]
	}
	return buf, seq
}

// scoreBufs is one score width's rotating antidiagonal buffers: the three
// H rows (the linear sweep's in-place layout touches only b1 and b2) and
// the affine E/F channel pairs.
type scoreBufs[S score] struct {
	b0, b1, b2     []S
	e0, e1, f0, f1 []S
}

// Workspace holds reusable DP buffers so a long-lived aligner (one per
// simulated IPU thread) performs no per-alignment allocation. The zero
// value is ready to use; buffers grow on demand.
type Workspace struct {
	wide scoreBufs[int32]
	// Narrow-tier (int16) buffers; allocated only when a narrow sweep
	// actually runs, so wide-only workloads pay nothing.
	narrow scoreBufs[int16]
	// hq and vq stage the padded sweep-order operands (operands).
	hq, vq []byte
	// tb is the recording sweeps' direction state (window index, packed
	// direction codes); see traceback.go. Untouched by the score pass.
	tb tracer
}

// sweepWide runs the score sweep of p.Algo's recurrence on int32 buffers.
// The saturation guard is a value no int32 can exceed, so the sweep
// always completes.
func (w *Workspace) sweepWide(h, v View, p Params) Result {
	hq, vq := w.operands(h, v)
	r, _ := sweep(&w.wide, hq, vq, p, negInf32, math.MaxInt32)
	return r
}

// sweepNarrow runs the same sweep on int16 buffers; ok is false when the
// saturation guard fired and the caller must promote to the wide tier.
func (w *Workspace) sweepNarrow(h, v View, p Params) (Result, bool) {
	hq, vq := w.operands(h, v)
	r, ok := sweep(&w.narrow, hq, vq, p, negInf16, satGuard16)
	r.Stats.Narrow = ok
	return r, ok
}

// sweep dispatches on the recurrence: one affine sweep, one linear sweep
// that serves both the Restricted2 and the Standard3 buffer layout. hq
// and vq are the sweep-order operands (see operands).
func sweep[S score](b *scoreBufs[S], hq, vq []byte, p Params, negInf, guard S) (Result, bool) {
	if p.Algo == AlgoAffine {
		return affineSweep(b, hq, vq, p, negInf, guard)
	}
	return linearSweep(b, hq, vq, p, negInf, guard)
}

// statAcc accumulates the per-antidiagonal trace counters in plain locals
// so the kernel inner loops touch registers, not Stats memory; every sweep
// flushes it into the Result once per extension.
type statAcc struct {
	antid               int
	cells               int64
	chunks32, chunks128 int64
	maxLive             int
}

func (a *statAcc) observe(computedWidth, liveWidth int) {
	a.antid++
	a.cells += int64(computedWidth)
	a.chunks32 += int64(uint(computedWidth+31) >> 5)
	a.chunks128 += int64(uint(computedWidth+127) >> 7)
	if liveWidth > a.maxLive {
		a.maxLive = liveWidth
	}
}

func (a *statAcc) flush(s *Stats) {
	s.Antidiagonals += a.antid
	s.Cells += a.cells
	s.SumComputedBand += a.cells
	s.Chunks32 += a.chunks32
	s.Chunks128 += a.chunks128
	if a.maxLive > s.MaxLiveBand {
		s.MaxLiveBand = a.maxLive
	}
}
