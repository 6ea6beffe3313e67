package core

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/oracle"
)

// oracleResult runs the X-Drop oracle (internal/oracle, which shares no
// code with this package) on the views' symbols and states its answer as
// the wide tier's Result: the trace counters are plain sums over the
// oracle's spans, and WorkBytes, which only a buffer layout defines, is 0.
func oracleResult(h, v View, p Params) Result {
	e := oracle.Extend(symbols(h), symbols(v), p.Scorer.Table(), p.Gap, p.X)
	st := Stats{Antidiagonals: len(e.Computed), TheoreticalCells: int64(h.Len()) * int64(v.Len())}
	for d, s := range e.Computed {
		w := int64(s.Width())
		st.Cells += w
		st.Chunks32 += (w + 31) / 32
		st.Chunks128 += (w + 127) / 128
		st.MaxLiveBand = max(st.MaxLiveBand, e.Live[d].Width())
	}
	st.SumComputedBand = st.Cells
	return Result{Score: e.Score, EndH: e.EndH, EndV: e.EndV, Stats: st}
}

// symbols materialises a view's symbols in view order.
func symbols(v View) []byte {
	if v.rev {
		return reversed(v.data)
	}
	return v.data
}

// The recording oracle: the naive two-pass replay that served every
// Traceback* call before the recording sweeps (fused.go) took over the
// second pass. It lives in the test build as the reference the production
// recording is compared against — a deliberately plain cell-by-cell walk
// (View.At per symbol, bounds-checked window reads, per-cell setCode,
// liveness tracked per cell) that shares with production only the window
// rule, pruneLimit and the tracer's direction store and walkers.

// replayOracle is the naive replay's state: its own tracer and the three
// private rows it rotates.
type replayOracle struct {
	tb               tracer
	rowA, rowB, rowC []int32 // rotating rows (d, d-1, d-2)
}

// extension replays h against v and encodes the walked runs like
// (*Workspace).record does.
func (w *replayOracle) extension(h, v View, p Params, rev bool) (Trace, error) {
	if err := p.Validate(); err != nil {
		return Trace{}, err
	}
	tr, err := w.traceLinear(h, v, p)
	if err != nil {
		return Trace{}, err
	}
	w.tb.cig.AppendRuns(w.tb.runs, rev)
	tr.Cigar = w.tb.cig.Cigar()
	return tr, nil
}

// right and left mirror TracebackRight / TracebackLeft.
func (w *replayOracle) right(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	return w.extension(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
}

func (w *replayOracle) left(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	return w.extension(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
}

// checkTraceMatchesOracle pins one production Trace to the oracle's in
// every field: score, end points, CIGAR, clamp flag and the exact
// trace-byte accounting.
func checkTraceMatchesOracle(t *testing.T, label string, got Trace, want Trace) {
	t.Helper()
	if got.Score != want.Score || got.EndH != want.EndH || got.EndV != want.EndV {
		t.Fatalf("%s: trace (%d,%d,%d) != oracle replay (%d,%d,%d)", label,
			got.Score, got.EndH, got.EndV, want.Score, want.EndH, want.EndV)
	}
	if got.Cigar != want.Cigar {
		t.Fatalf("%s: cigar %q != oracle replay cigar %q", label, got.Cigar, want.Cigar)
	}
	if got.Clamped != want.Clamped {
		t.Fatalf("%s: clamp flag %v != oracle replay %v", label, got.Clamped, want.Clamped)
	}
	if got.TraceBytes != want.TraceBytes {
		t.Fatalf("%s: trace bytes %d != oracle replay %d", label, got.TraceBytes, want.TraceBytes)
	}
}

// checkSidesMatchOracle runs both sides of a seed extension through the
// production second pass and the oracle.
func checkSidesMatchOracle(t *testing.T, h, v []byte, s Seed, p Params, label string) {
	t.Helper()
	var ws Workspace
	var or replayOracle
	got, err := ws.TracebackLeft(h, v, s.H, s.V, p)
	if err != nil {
		t.Fatalf("%s: TracebackLeft: %v", label, err)
	}
	want, err := or.left(h, v, s.H, s.V, p)
	if err != nil {
		t.Fatalf("%s: oracle left: %v", label, err)
	}
	checkTraceMatchesOracle(t, label+"/left", got, want)
	got, err = ws.TracebackRight(h, v, s.H+s.Len, s.V+s.Len, p)
	if err != nil {
		t.Fatalf("%s: TracebackRight: %v", label, err)
	}
	want, err = or.right(h, v, s.H+s.Len, s.V+s.Len, p)
	if err != nil {
		t.Fatalf("%s: oracle right: %v", label, err)
	}
	checkTraceMatchesOracle(t, label+"/right", got, want)
}

func grow32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// get32 reads row value i from a window [cl, cu]; outside reads answer
// −∞, exactly like the score kernels' guard cells.
func get32(vals []int32, cl, cu, i int) int32 {
	if i < cl || i > cu {
		return negInf32
	}
	return vals[i-cl]
}

// traceLinear replays a linear-gap extension (Restricted2 / Standard3
// semantics) with direction recording and leaves the walk-order
// runs (best cell back to the origin) in tb.runs.
func (w *replayOracle) traceLinear(h, v View, p Params) (Trace, error) {
	m, n := h.Len(), v.Len()
	capacity := linearCapacity(m, n, &p)
	tb := &w.tb
	tb.reset(m + n + 1)

	tab := p.Scorer.Table()
	gap := int32(p.Gap)

	d1 := grow32(w.rowB, 1)
	d1[0] = 0
	d1cl, d1cu := 0, 0 // computed window of antidiagonal d-1
	d1lo, d1hi := 0, 0 // live bounds of antidiagonal d-1
	d2 := w.rowC[:0]
	d2cl, d2cu := 0, -1 // antidiagonal d-2 starts empty (all −∞)
	spare := w.rowA

	var res Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone) // the origin

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0
	prevBestI := 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		if cu-cl+1 > capacity {
			// The δb clamp, re-centred on the previous antidiagonal's
			// best cell — identical to Restricted2's realignment rule.
			res.Clamped = true
			ncl := prevBestI - capacity/2
			if ncl < cl {
				ncl = cl
			}
			if ncl > cu-capacity+1 {
				ncl = cu - capacity + 1
			}
			cl = ncl
			cu = cl + capacity - 1
		}
		limit := pruneLimit(t, p.X)
		width := cu - cl + 1
		out := grow32(spare, width)
		rowBest, rowBestI := negInf32, -1
		lo, hi := -1, -1
		base := tb.beginDiag(cl, width)
		if base < 0 {
			return Trace{}, ErrTraceTooLarge
		}
		for i := cl; i <= cu; i++ {
			j := d - i
			var s int32
			var code byte
			switch {
			case i == 0:
				// Top boundary (j = d): only the left (gap-in-H) move.
				s = get32(d1, d1cl, d1cu, 0) + gap
				code = codeLeft
			case j == 0:
				// Bottom boundary: only the up (gap-in-V) move.
				s = get32(d1, d1cl, d1cu, i-1) + gap
				code = codeUp
			default:
				s = get32(d2, d2cl, d2cu, i-1) + int32(tab[h.At(i-1)][v.At(j-1)])
				code = codeDiag
				up := get32(d1, d1cl, d1cu, i-1)
				left := get32(d1, d1cl, d1cu, i)
				// The kernels take the gap branch only when it strictly
				// beats the diagonal; between the two gap sources the
				// value is what matters, up wins ties here.
				if g := max(up, left) + gap; g > s {
					s = g
					if up >= left {
						code = codeUp
					} else {
						code = codeLeft
					}
				}
			}
			if s < limit {
				s, code = negInf32, codeNone
			} else {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
			if s > rowBest {
				rowBest, rowBestI = s, i
			}
			out[i-cl] = s
			tb.setCode(base, i-cl, code)
		}
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		spare = d2
		d2, d2cl, d2cu = d1, d1cl, d1cu
		d1, d1cl, d1cu = out, cl, cu
		d1lo, d1hi = lo, hi
		prevBestI = rowBestI
	}
	w.rowA, w.rowB, w.rowC = spare[:0], d1[:0], d2[:0]

	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	res.TraceBytes = tb.traceBytes()
	var err error
	if tb.runs, err = tb.walkLinear(h, v, p, res.Score, bestI, bestD, tb.runs[:0]); err != nil {
		return Trace{}, err
	}
	return res, nil
}
