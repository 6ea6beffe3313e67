package core

import (
	"encoding/binary"
	"math"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// The DP sweeps keep 4-byte scores, as the paper's kernel does (§3:
// Stats.WorkBytes) and the IPU stores them — also half the cache pressure
// of 8-byte ints, which is most of the kernels' memory traffic. The narrow
// tier (tier.go) is a modeled score width, not a second sweep: its outcome
// is derived from the int32 Result.
//
// int32 bounds the representable alignment score to ±2^29-ish (scores are
// kept above negInf32/2, see pruneLimit); with per-symbol scores ≤ 127
// that covers sequences of a few million symbols per extension, far
// beyond anything a 624 KB tile can hold.

// negInf32 is the pruned-cell sentinel of the working buffers. It is far
// enough from the int32 minimum that adding similarity scores or gap
// penalties cannot wrap.
const negInf32 int32 = math.MinInt32 / 4

// scoreBytes is the working-buffer element size; Stats.WorkBytes counts
// the buffers the sweeps actually hold in it, so the modeled footprint
// matches the real buffers.
const scoreBytes = 4

// bufPad is the number of −∞ guard cells kept on each side of a stored
// antidiagonal window. A row d reads its predecessors at most one (d−1)
// or two (d−2) cells beyond their computed windows — the guards answer
// those reads with −∞ directly, eliminating the per-neighbor window
// bounds checks the old adiag.at performed in the inner loop.
const bufPad = 2

// seedDiag initialises a buffer to the one-cell window {0: v} with its
// guards — the state of antidiagonal 0 (or, with v = negInf32, the
// placeholder for the not-yet-existing antidiagonal −1).
func seedDiag(b []int32, v int32) {
	b[0], b[1], b[2], b[3], b[4] = negInf32, negInf32, v, negInf32, negInf32
}

// setGuards writes the −∞ guard cells around a freshly computed window of
// the given width. O(1) per antidiagonal; it is what lets the inner loops
// read neighbors without window checks.
func setGuards(buf []int32, width int) {
	buf[0], buf[1] = negInf32, negInf32
	buf[width+bufPad], buf[width+bufPad+1] = negInf32, negInf32
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
// "avx2" (row_amd64.s) or "generic" (linearSweep's Go loop). Results are
// bit-identical either way.
func RowISA() string {
	if rowVec {
		return "avx2"
	}
	return "generic"
}

// growBuf returns a buffer holding n window cells plus the guards (and
// rowSlack spare capacity), reusing b's storage when it is large enough.
func growBuf(b []int32, n int) []int32 {
	n += 2 * bufPad
	if cap(b) >= n+rowSlack {
		return b[:n]
	}
	return make([]int32, n, n+rowSlack)
}

// firstEq returns the index of the first cell of row holding v, which the
// caller knows is there: v is the maximum of that stored row, recovered
// only when its position is needed — the row sets a new best, or the δb
// clamp re-centres on it — with the first-wins tie-breaking of a scalar
// best chain.
func firstEq(row []int32, v int32) int {
	k := 0
	for row[k] != v {
		k++
	}
	return k
}

// pruneLimit returns the X-Drop cutoff T−X for the current antidiagonal,
// clamped so that a pruned cell (negInf32) plus any per-symbol score still
// compares below it — i.e. pruned cells can never resurrect, even for
// enormous X.
func pruneLimit(t int32, x int) int32 {
	l := int(t) - x
	if l < int(negInf32)/2 {
		return negInf32 / 2
	}
	return int32(l)
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

// stage copies src (place) into buf between two runs of seqPad zero
// bytes, reusing buf's storage when it is large enough. It returns the
// buffer and the copy inside it.
func stage(buf, src []byte, reverse bool) (_, seq []byte) {
	n := len(src)
	if cap(buf) < n+2*seqPad {
		buf = make([]byte, n+2*seqPad)
	}
	buf = buf[:n+2*seqPad]
	clear(buf[:seqPad])
	clear(buf[seqPad+n:])
	seq = buf[seqPad : seqPad+n]
	place(seq, src, reverse)
	return buf, seq
}

// place copies src into seq, of the same length — reversed or not, eight
// bytes per step.
func place(seq, src []byte, reverse bool) {
	if !reverse {
		copy(seq, src)
		return
	}
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(seq[i:], binary.BigEndian.Uint64(src[n-8-i:]))
	}
	for ; i < n; i++ {
		seq[i] = src[n-1-i]
	}
}

// scoreBufs is one lane's rotating antidiagonal buffers: the three H rows
// (the linear sweep's in-place layout touches only b1 and b2) and the
// affine E/F channel pairs.
type scoreBufs struct {
	b0, b1, b2     []int32
	e0, e1, f0, f1 []int32
}

// Workspace holds reusable DP buffers so a long-lived aligner (one per
// simulated IPU thread) performs no per-alignment allocation. The zero
// value is ready to use; buffers grow on demand.
type Workspace struct {
	// wide is the score sweeps' buffers, and the recording's.
	wide scoreBufs
	// hq and vq stage the padded sweep-order operands (operands).
	hq, vq []byte
	// The queue of ExtendBatch (sweepBatch): alt is the second lane's score
	// buffers (the first lane's are wide's), arena the staged operands of
	// every queued side, states their sweep states.
	alt    scoreBufs
	arena  []byte
	states []sweepState
	// tb is the recording sweeps' direction state (window index, packed
	// direction codes); see traceback.go. Untouched by the score pass.
	tb tracer
}

// Trim releases every buffer of the workspace that grew past retainBytes:
// the score buffers of both lanes, the staged operands, ExtendBatch's
// arena and states, and the recording buffers. A pooled
// workspace calls it between units of work, so that one outlier extension
// — a Standard3 buffer grows with min(m, n), the arena with a whole tile's
// operands — does not stay pinned on it.
func (w *Workspace) Trim() {
	for _, b := range [...]*scoreBufs{&w.wide, &w.alt} {
		for _, s := range [...]*[]int32{&b.b0, &b.b1, &b.b2, &b.e0, &b.e1, &b.f0, &b.f1} {
			if cap(*s)*scoreBytes > retainBytes {
				*s = nil
			}
		}
	}
	for _, s := range [...]*[]byte{&w.hq, &w.vq, &w.arena} {
		if cap(*s) > retainBytes {
			*s = nil
		}
	}
	if w.arena == nil {
		clear(w.states[:cap(w.states)]) // the states point into the arena
	}
	if cap(w.states)*int(unsafe.Sizeof(sweepState{})) > retainBytes {
		w.states = nil
	}
	w.tb.trim()
}

// sweep runs the score sweep of p.Algo's recurrence into *res, the whole
// of it: one affine sweep, or one linear sweep that serves both the
// Restricted2 and the Standard3 buffer layout.
func (w *Workspace) sweep(h, v View, p *Params, res *Result) {
	hq, vq := w.operands(h, v)
	if p.Algo == AlgoAffine {
		affineSweep(&w.wide, hq, vq, p, res)
		return
	}
	linearSweep(&w.wide, hq, vq, p, nil, res)
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
