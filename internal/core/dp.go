package core

import "math"

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

// growBuf returns a buffer holding n window cells plus the guards,
// reusing b's storage when it is large enough.
func growBuf[S score](b []S, n int) []S {
	n += 2 * bufPad
	if cap(b) >= n {
		return b[:n]
	}
	return make([]S, n)
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

// dir resolves the view's direction once per extension: the symbol read
// by DP column i is data[org+step*i]. This replaces the per-cell
// direction branch of View.At in the kernel inner loops.
func (v View) dir() (step, org int) {
	if v.rev {
		// Column i reads logical symbol i−1, i.e. data[len−1−(i−1)].
		return -1, len(v.data)
	}
	return 1, -1
}

// vdir is dir for the vertical sequence, whose symbol index also depends
// on the antidiagonal: column i of antidiagonal d reads symbol j−1 with
// j = d−i, i.e. data[org + dd*d + step*i].
func (v View) vdir() (step, dd, org int) {
	if v.rev {
		return 1, -1, len(v.data)
	}
	return -1, 1, -1
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
	// tb is the recording sweeps' direction state (window index, packed
	// direction codes); see traceback.go. Untouched by the score pass.
	tb tracer
}

// sweepWide runs the score sweep of p.Algo's recurrence on int32 buffers.
// The saturation guard is a value no int32 can exceed, so the sweep
// always completes.
func (w *Workspace) sweepWide(h, v View, p Params) Result {
	r, _ := sweep(&w.wide, h, v, p, negInf32, math.MaxInt32)
	return r
}

// sweepNarrow runs the same sweep on int16 buffers; ok is false when the
// saturation guard fired and the caller must promote to the wide tier.
func (w *Workspace) sweepNarrow(h, v View, p Params) (Result, bool) {
	r, ok := sweep(&w.narrow, h, v, p, negInf16, satGuard16)
	r.Stats.Narrow = ok
	return r, ok
}

// sweep dispatches on the recurrence: one affine sweep, one linear sweep
// that serves both the Restricted2 and the Standard3 buffer layout.
func sweep[S score](b *scoreBufs[S], h, v View, p Params, negInf, guard S) (Result, bool) {
	if p.Algo == AlgoAffine {
		return affineSweep(b, h, v, p, negInf, guard)
	}
	return linearSweep(b, h, v, p, negInf, guard)
}

// statAcc accumulates the per-antidiagonal trace counters in plain locals
// so the kernel inner loops touch registers, not Stats memory; kernels
// flush it into the Result once per extension.
type statAcc struct {
	antid               int
	cells               int64
	chunks32, chunks128 int64
	maxLive             int
}

func (a *statAcc) observe(computedWidth, liveWidth int) {
	a.antid++
	a.cells += int64(computedWidth)
	a.chunks32 += int64((computedWidth + 31) / 32)
	a.chunks128 += int64((computedWidth + 127) / 128)
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
