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
// is the second pass and only its Trace is kept). It has no loop of its
// own: it is linearSweep given a tracer, whose rows are then the recording
// row kind, in the Go loop and in the resident assembly (sweepLinearVec)
// alike. There the direction codes fall out of the compare masks the row
// computes anyway, and the row appends them packed, 2 bits a cell, to one
// code stream in the tracer. So recording costs roughly one sweep — and
// the returned Result is bit-identical to the score sweep's in every
// field, including the trace counters.
//
// Because the Result is the score sweep's, a traced extension never needs
// a separate score pass on the host: the tile kernel sweeps every traced
// extension once, here, gated or not. Whether the modeled device fuses or
// pays a score pass plus a second pass is ipukernel's decision
// (Config.fusedExtension), made on SRAM grounds — a fused recording lives
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

// fusedLinear is the linear-gap recording sweep (Restricted2 / Standard3
// window semantics, selected by p.Algo through linearCapacity): it opens
// the recording with antidiagonal 0's one cell and runs linearSweep with
// the tracer, whose every row then also records (see linearSweep). Its
// Result is the score sweep's in every field.
func (w *Workspace) fusedLinear(h, v View, p Params) (Result, Trace, error) {
	tb := &w.tb
	tb.reset(h.Len() + v.Len() + 1)
	tb.setCode(tb.beginDiag(0, 1), 0, codeNone)
	hq, vq := w.operands(h, v)
	var res Result
	if !linearSweep(&w.wide, hq, vq, &p, tb, &res) {
		return Result{}, Trace{}, ErrTraceTooLarge
	}
	return res, tb.trace(res), nil
}

// trace is the Trace of the finished recording whose Result is r.
func (tb *tracer) trace(r Result) Trace {
	return Trace{Score: r.Score, EndH: r.EndH, EndV: r.EndV, Clamped: r.Stats.Clamped, TraceBytes: tb.traceBytes()}
}

// recordResident runs the antidiagonal loop of a recording linearSweep in
// sweepLinearVec's recording kind, from the state linearSweep has set up:
// b0, b1 and b2 grown, b1 and b2 seeded, acc and the recording holding
// antidiagonal 0. It reports false when the recording fails with
// ErrTraceTooLarge.
//
// Between calls Go does what the Go loop's beginDiag does on every row:
// before a call, dirs gets room for the next row — grown the way beginDiag
// grows it, so the allocations are the Go loop's — or, when that row would
// pass maxTraceCells, the recording fails with ErrTraceTooLarge on the
// antidiagonal the Go loop fails on. The call then records rows until the
// extension ends, its row budget (sweepRows) is spent, or the next row does
// not fit in dirs. The code stream's part byte is read back when a call
// opens the stream and written back when it returns.
func (tb *tracer) recordResident(b *scoreBufs, hq, vq []byte, p *Params, capacity int, acc statAcc, res *Result) bool {
	var st sweepState
	st.begin(hq, vq, p, capacity, acc)
	st.bind(b.b1, b.b2, b.b0)
	st.record, st.cls, st.offs = true, unsafe.SliceData(tb.cls), unsafe.SliceData(tb.offs)
	offs := tb.offs[:cap(tb.offs)]
	dirs := tb.dirs[:cap(tb.dirs)]
	for !st.done {
		at, width := int(offs[st.diag()]), st.rowWidth()
		if width <= 0 {
			break
		}
		if int64(at)+int64(width) > maxTraceCells {
			tb.dirs = dirs[:(at+3)>>2]
			*res = Result{}
			return false
		}
		if need, used := (at+width+3)>>2, (at+3)>>2; need > len(dirs) {
			dirs = append(dirs[:used], make([]byte, need-used)...)
			dirs = dirs[:cap(dirs)]
		}
		st.openStream(dirs, at)
		d := st.diag()
		st.call()
		st.closeStream(dirs)
		if st.diag() == d && !st.done {
			panic("core: the recording kernel refused a row that fits")
		}
	}
	d := st.diag()
	tb.cls, tb.offs = tb.cls[:d], tb.offs[:d+1]
	tb.dirs = dirs[:(offs[d]+3)>>2]
	st.finish(res)
	return true
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
