package core

import (
	"errors"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// The recording sweep: the linear-gap scoring sweep that also records a
// 2-bit direction code per cell as it goes. It is the only code that
// produces a Trace, and serves both traceback schedules — fused
// (FusedExtend*: the one sweep delivers the Result and the Trace, no
// second pass) and two-pass (Traceback*: the score sweep ran first, this
// is the second pass and only its Trace is kept). The loop is structured
// like the score sweeps' Go loops (NegInf-padded rotating buffers,
// sweep-order operands, peeled boundaries, fringe-scan liveness recovery,
// statAcc counters), and on AVX2 it runs in the score sweep's resident
// assembly (sweepLinearVec) as that body's second row kind: the direction
// codes fall out of the compare masks the row computes anyway, and the row
// appends them packed, 2 bits a cell, to one code stream in the tracer. So
// recording costs roughly one sweep — and the returned Result is
// bit-identical to the score sweep's in every field, including the trace
// counters.
//
// Eligibility for the fused schedule (FusedEligible): extensions that
// score on the int32 tier only. Narrow (int16) extensions keep the
// two-pass schedule — fusing them would change the batch tier counters.
// Because the Result is the score sweep's, an eligible extension never
// needs a separate score pass on the host: the tile kernel sweeps every
// ungated eligible extension once, here. Whether the modeled device fuses
// or pays a score pass plus a second pass is ipukernel's decision
// (Config.fusedExtension), made on SRAM grounds: a fused recording lives
// on its thread for the whole scoring pass, so the SRAM model charges one
// direction arena per thread (ipukernel.TileMemoryBytes) instead of the
// single serialized second-pass arena.
//
// AlgoAffine is score-only: the paper's kernel is linear-gap, and affine
// gaps serve only as the ksw2 baseline's score. Every recording entry
// point refuses it with ErrAffineTraceback before sweeping anything.

// ErrAffineTraceback reports a traceback request under AlgoAffine, which
// scores but does not record.
var ErrAffineTraceback = errors.New("core: traceback records linear-gap extensions only; AlgoAffine is score-only")

// FusedEligible reports whether an m×n extension under p can use the
// fused single-pass schedule: linear-gap extensions scored by the wide
// (int32) sweep only. Narrow-tier extensions keep the two-pass schedule.
func FusedEligible(m, n int, p Params) bool {
	return !useNarrow(m, n, p)
}

// recordRuns runs the recording sweep over views h and v and walks the
// recorded directions back from the best cell — failing unless the walked
// path re-prices to the sweep's Score — appending the path to runs in walk
// order (best cell → origin). The Trace has no Cigar; on an error runs
// comes back as passed in.
func (w *Workspace) recordRuns(h, v View, p Params, runs []alignment.Run) (Result, Trace, []alignment.Run, error) {
	defer w.tb.trim()
	if err := p.Validate(); err != nil {
		return Result{}, Trace{}, runs, err
	}
	if p.Algo == AlgoAffine {
		return Result{}, Trace{}, runs, ErrAffineTraceback
	}
	r, tr, err := w.fusedLinear(h, v, p)
	if err != nil {
		return Result{}, Trace{}, runs, err
	}
	if runs, err = w.tb.walkLinear(h, v, p, r.Score, r.EndH, r.EndH+r.EndV, runs); err != nil {
		return Result{}, Trace{}, runs, err
	}
	return r, tr, runs, nil
}

// record is recordRuns for the entry points that return a Cigar: the runs
// go to the tracer's scratch and come back encoded as the Trace's Cigar;
// rev encodes them back to front, which for forward views is view-forward
// order.
func (w *Workspace) record(h, v View, p Params, rev bool) (Result, Trace, error) {
	tb := &w.tb
	r, tr, runs, err := w.recordRuns(h, v, p, tb.runs[:0])
	if err == nil {
		appendRuns(&tb.cig, runs, rev)
		tr.Cigar = tb.cig.Cigar()
	}
	tb.runs = runs
	tb.trim()
	return r, tr, err
}

// FusedExtendRight runs the right seed extension (ExtendRight geometry)
// with fused direction recording: the Result bit-matches ExtendRight and
// the Trace bit-matches TracebackRight (Cigar in sequence-forward
// order).
func (w *Workspace) FusedExtendRight(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.record(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
}

// FusedExtendLeft is FusedExtendRight for the left seed extension
// (ExtendLeft geometry, reversed views; Cigar in sequence-forward
// order, matching TracebackLeft).
func (w *Workspace) FusedExtendLeft(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.record(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
}

// fusedLinear is the linear-gap recording sweep (Restricted2 / Standard3
// window semantics, selected by p.Algo through linearCapacity).
// Rows are linearSweep's padded-window walk with a per-cell direction code
// folded in. Two bodies, as for the score sweep: where there is a vector
// body (rowVec) the whole loop runs in sweepLinearVec's recording kind
// (tracer.recordResident), one call per extension; otherwise the Go loop
// below — the complete recurrence, and the vector body's oracle — fills the
// unpacked codes row, packRow packs it, and the peeled boundary cells are
// stored with setCode. The rotation uses three distinct buffers (like
// Standard3), so no row needs an in-place aliasing carry.
func (w *Workspace) fusedLinear(h, v View, p Params) (Result, Trace, error) {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	capacity := linearCapacity(m, n, p)
	w.wide.b0 = growBuf(w.wide.b0, capacity)
	w.wide.b1 = growBuf(w.wide.b1, capacity)
	w.wide.b2 = growBuf(w.wide.b2, capacity)
	tb := &w.tb
	tb.reset(m + n + 1)

	res := Result{Stats: Stats{TheoreticalCells: int64(m) * int64(n)}}
	if p.Algo == AlgoStandard3 {
		res.Stats.WorkBytes = 3 * delta * scoreBytes
	} else {
		res.Stats.WorkBytes = 2 * capacity * scoreBytes
	}

	tab := p.Scorer.Table()
	gap := int32(p.Gap)
	hq, vq := w.operands(h, v)

	out, d1b, d2b := w.wide.b0, w.wide.b1, w.wide.b2
	seedDiag(d1b, 0, negInf32)
	seedDiag(d2b, negInf32, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone)

	if rowVec {
		// The resident recording kind runs the loop below, row for row, and
		// leaves the same cells in the same buffers and the same recording.
		if err := tb.recordResident(&w.wide, hq, vq, p, capacity, acc, &res); err != nil {
			return Result{}, Trace{}, err
		}
		return res, tb.trace(res), nil
	}

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0
	d1best := int32(0) // the maximum of antidiagonal d−1

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		if cu-cl+1 > capacity {
			// The δb clamp, re-centred on the previous antidiagonal's
			// best cell — identical to Restricted2's realignment rule.
			res.Stats.Clamped = true
			ncl := d1lo + firstEq(d1b[d1lo+bufPad-d1cl:], d1best) - capacity/2
			if ncl < cl {
				ncl = cl
			}
			if ncl > cu-capacity+1 {
				ncl = cu - capacity + 1
			}
			cl = ncl
			cu = cl + capacity - 1
		}

		limit := pruneLimit(t, p.X, negInf32)
		width := cu - cl + 1
		dbase := tb.beginDiag(cl, width)
		if dbase < 0 {
			return Result{}, Trace{}, ErrTraceTooLarge
		}
		rowBest := negInf32
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the left (gap-in-H) move.
			s := d1b[o1] + gap
			c := codeLeft
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
			tb.setCode(dbase, 0, c)
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			kbase := i
			cell := dbase + int32(kbase-cl)
			outRow := out[kbase+oo:][:cnt]
			d2v := d2b[kbase-1+o2:][:cnt]
			d1r := d1b[kbase+o1:][:cnt]
			hRow := hq[kbase-1:][:cnt]
			vRow := vq[n-d+kbase:][:cnt]
			codeRow := tb.growCodes(cnt)
			dlv := d1b[kbase-1+o1]
			for k := range outRow {
				s := d2v[k] + int32(tab[hRow[k]][vRow[k]])
				c := codeDiag
				drv := d1r[k]
				// The score sweeps take the gap branch only when it
				// strictly beats the diagonal; between the two gap
				// sources up wins ties.
				if g := max(dlv, drv) + gap; g > s {
					s = g
					if dlv >= drv {
						c = codeUp
					} else {
						c = codeLeft
					}
				}
				dlv = drv
				if s < limit {
					s, c = negInf32, codeNone
				}
				if s > rowBest {
					rowBest = s
				}
				outRow[k] = s
				codeRow[k] = c
			}
			tb.packRow(cell, codeRow)
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the up (gap-in-V) move.
			s := d1b[i-1+o1] + gap
			c := codeUp
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[i+oo] = s
			tb.setCode(dbase, i-cl, c)
		}
		setGuards(out, width, negInf32)

		// Recover the live sub-window from the stored row and, when the
		// row sets a new best, its first argmax — exactly like the score
		// kernels.
		row := out[bufPad:][:width]
		lo, hi := -1, -1
		for k := 0; k < width; k++ {
			if row[k] != negInf32 {
				lo = cl + k
				break
			}
		}
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if row[k] != negInf32 {
					hi = cl + k
					break
				}
			}
		}

		liveW := 0
		if lo >= 0 {
			liveW = hi - lo + 1
		}
		acc.observe(width, liveW)
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, lo+firstEq(row[lo-cl:], rowBest), d
		}
		if rowBest > t {
			t = rowBest
		}
		d1best = rowBest
		out, d1b, d2b = d2b, out, d1b
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return res, tb.trace(res), nil
}

// trace is the Trace of the finished recording whose Result is r.
func (tb *tracer) trace(r Result) Trace {
	return Trace{Score: r.Score, EndH: r.EndH, EndV: r.EndV, Clamped: r.Stats.Clamped, TraceBytes: tb.traceBytes()}
}

// recordResident runs fusedLinear's antidiagonal loop in sweepLinearVec's
// recording kind, from the state fusedLinear has set up: b0, b1 and b2
// grown, b1 and b2 seeded, acc and the recording holding antidiagonal 0.
//
// Between calls Go does what the Go loop's beginDiag does on every row:
// before a call, dirs gets room for the next row — grown the way beginDiag
// grows it, so the allocations are the Go loop's — or, when that row would
// pass maxTraceCells, the recording fails with ErrTraceTooLarge on the
// antidiagonal the Go loop fails on. The call then records rows until the
// extension ends, its row budget (sweepRows) is spent, or the next row does
// not fit in dirs. The code stream's part byte is read back when a call
// opens the stream and written back when it returns.
func (tb *tracer) recordResident(b *scoreBufs[int32], hq, vq []byte, p Params, capacity int, acc statAcc, res *Result) error {
	st := sweepState{
		hq: unsafe.SliceData(hq), vq: unsafe.SliceData(vq), sim: rowSimOf(p.Scorer),
		m: len(hq), n: len(vq), capacity: capacity,
		gap: int32(p.Gap), x: int32(min(p.X, 1<<30)),
		d1: &b.b1[0], d2: &b.b2[0], out: &b.b0[0],
		d: 1, limit: pruneLimit(0, p.X, negInf32), acc: acc,
		record: true, cls: unsafe.SliceData(tb.cls), offs: unsafe.SliceData(tb.offs),
	}
	offs := tb.offs[:cap(tb.offs)]
	dirs := tb.dirs[:cap(tb.dirs)]
	for !st.done {
		at, width := int(offs[st.d]), st.rowWidth()
		if width <= 0 {
			break
		}
		if int64(at)+int64(width) > maxTraceCells {
			tb.dirs = dirs[:(at+3)>>2]
			return ErrTraceTooLarge
		}
		if need, used := (at+width+3)>>2, (at+3)>>2; need > len(dirs) {
			dirs = append(dirs[:used], make([]byte, need-used)...)
			dirs = dirs[:cap(dirs)]
		}
		st.openStream(dirs, at)
		st.rows = sweepRows
		sweepLinearVec(&st)
		st.closeStream(dirs)
		if st.rows == sweepRows && !st.done {
			panic("core: the recording kernel refused a row that fits")
		}
	}
	tb.cls, tb.offs = tb.cls[:st.d], tb.offs[:st.d+1]
	tb.dirs = dirs[:(offs[st.d]+3)>>2]
	st.finish(res)
	return nil
}

// openStream points the recording kind's code stream at cell at of dirs:
// its byte, and that byte's bits below the cell as the carry.
func (st *sweepState) openStream(dirs []byte, at int) {
	st.dirs, st.dirb = unsafe.SliceData(dirs), at>>2
	st.bits = uint32(at&3) * 2
	st.mul = 1 << st.bits
	st.carry = 0
	if st.bits != 0 {
		st.carry = uint32(dirs[st.dirb]) & (st.mul - 1)
	}
	st.cellEnd = int(min(int64(4*len(dirs)), maxTraceCells))
}

// closeStream stores the stream's carry in its part byte, under the bits
// above it.
func (st *sweepState) closeStream(dirs []byte) {
	if st.bits != 0 {
		c := &dirs[st.dirb]
		*c = *c&^byte(st.mul-1) | byte(st.carry)
	}
}
