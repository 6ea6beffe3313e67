package core

import "unsafe"

// linearCapacity resolves the working-window bound of a linear-gap sweep:
// Restricted2 honours DeltaB, Standard3 is unbounded, i.e. δ = min(m,n)+1.
func linearCapacity(m, n int, p *Params) int {
	delta := min(m, n) + 1
	if p.Algo == AlgoRestricted2 && p.DeltaB > 0 && p.DeltaB < delta {
		return p.DeltaB
	}
	return delta
}

// linearSweep is the linear-gap X-Drop sweep, written once for both buffer
// layouts and both row kinds.
//
// The recurrence is walked the way the paper's Algorithm 1 states it:
//
//  1. Gotoh's observation that two antidiagonals suffice — antidiagonal d
//     overwrites d−2 in place, carrying the one value that would be
//     clobbered (the diagonal predecessor) in a scalar (w_last in
//     Algorithm 1). This is safe because the live lower bound L never
//     decreases, so writes trail reads.
//  2. A dynamic working band: the buffers hold only δb cells, and the
//     window is re-aligned every iteration to the live region. If the
//     live region would outgrow δb it is clamped around the current
//     best-scoring cell and Stats.Clamped is set (the paper chooses
//     δb ≥ δw so this does not trigger on real data; §6.1).
//
// DeltaB = 0 (or ≥ δ) reproduces the unrestricted search space exactly.
//
// Standard3 is the same body with one per-extension choice: the write
// target is a third buffer instead of d−2's own, the three rotate, and
// every buffer has the unbounded capacity δ — Zhang's 3δ layout that
// SeqAn and LOGAN use, held physically so WorkBytes stays true of the
// buffers touched. The carry is then redundant but harmless, and with
// δb ≥ δw the two layouts compute identical cells (§6.1).
//
// Recording is the other per-extension choice (tb non-nil; fusedLinear).
// Every row is then also a recording row: it opens its window in tb
// (beginDiag), stores the peeled boundary cells' direction codes with
// setCode, and runs its interior through the scalar direction rule into
// the unpacked codes row, which packRow packs. A recording
// rotates three buffers in either layout — the rotation sweepLinearVec's
// recording kind is bound to (tracer.recordResident) — and WorkBytes stays
// the score layout's: the recording's own footprint is Trace.TraceBytes.
// Everything else in a row is the same code for both kinds, so the
// recording's Result is the score sweep's in every field.
//
// The sweep runs on NegInf-padded buffers (see dp.go) and on operands
// laid out in sweep order (Workspace.operands): hq and vq both run
// unit-stride upward along an antidiagonal whatever the view directions
// were, so there is one inner loop a row kind. The i=0 and j=0 boundary
// cells are peeled out of it, and interior cells read their neighbors
// through exact-length row slices with no window checks. The live
// sub-window is recovered by scanning the stored row's pruned fringes
// instead of branching on liveness per cell, the row's argmax only when
// the row sets a new best (or the δb clamp needs the previous one), and
// trace counters accumulate in locals (statAcc), flushed once at the end.
//
// Two bodies. The Go loop below is the sweep for every GOARCH and the
// purego build tag. On amd64 with AVX2 (rowVec; see row_amd64.go) the
// whole loop instead runs, first row to last, inside sweepLinearVec
// (row_amd64.s) — the paper's codelet shape: one resident kernel per
// extension, not one call per row — eight cells per instruction, the last
// vector of a row masked, the similarity in the form the scorer allows
// (rowSim), the direction codes of a recording row taken from the compare
// masks the row computes anyway. The assembly is this loop statement for
// statement; the differences are of form only:
//
//   - It peels no boundary cell. With −∞ guards on both sides of every
//     stored row and the operands staged between pad bytes, the general
//     recurrence already yields them: at i = 0 the diagonal d−2[−1] and
//     the gap source d−1[−1] are guards, so the cell is d−1[0]+gap (the
//     similarity of the pad byte hq[−1] is added to −∞ and loses); at
//     j = 0 the diagonal d−2[d−1] and the gap source d−1[d] are guards,
//     so the cell is d−1[d−1]+gap (vq[n] is the pad byte).
//   - The live bounds come from the prune compare's lane mask, not from a
//     scan of the stored row, and T and the prune limit stay broadcast in
//     vector registers.
//
// Both bodies store identical rows in identical buffers, record identical
// codes and return identical Results, so nothing downstream — Stats,
// KernelFingerprint, caches, traces — knows which ran
// (TestSweepKernelMatchesGeneric, TestVectorSweepMatchesGenericSweep,
// TestVectorRecordMatchesGenericRecord).
//
// It writes the extension's Result to *res and reports false, *res zeroed,
// only when a recording row would pass maxTraceCells: on the antidiagonal
// beginDiag refuses the recording fails with ErrTraceTooLarge. A score
// sweep always completes.
func linearSweep(b *scoreBufs, hq, vq []byte, p *Params, tb *tracer, res *Result) bool {
	m, n := len(hq), len(vq)
	capacity := linearCapacity(m, n, p)
	nbuf := 2
	if p.Algo == AlgoStandard3 {
		nbuf = 3
	}
	inPlace := nbuf == 2 && tb == nil
	b.b1 = growBuf(b.b1, capacity)
	b.b2 = growBuf(b.b2, capacity)

	// d1b holds antidiagonal d−1; d2b holds d−2. In place, antidiagonal d
	// overwrites d−2 (out aliases d2b); otherwise out is the third
	// buffer. Window starts and the live bounds of d−1 rotate as plain
	// scalars.
	d1b, d2b := b.b1, b.b2
	out := d2b
	if !inPlace {
		b.b0 = growBuf(b.b0, capacity)
		out = b.b0
	}

	*res = Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        nbuf * capacity * scoreBytes,
	}}

	tab := p.Scorer.Table()
	gap := int32(p.Gap)

	seedDiag(d1b, 0)
	seedDiag(d2b, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	if rowVec {
		// The resident vector sweep runs the loop below, row for row, and
		// leaves the same cells in the same buffers (and the same
		// recording).
		if tb != nil {
			return tb.recordResident(b, hq, vq, p, capacity, acc, res)
		}
		sweepResident(b, hq, vq, p, capacity, acc, res)
		return true
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
			// Re-align the working window around the best-scoring
			// cell of the previous antidiagonal (§3: the band is
			// "constantly realigned to the active iteration
			// position that stores the best score").
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
		width := cu - cl + 1
		var dbase int32 // the recording's first cell of this row
		if tb != nil {
			if dbase = tb.beginDiag(cl, width); dbase < 0 {
				*res = Result{}
				return false
			}
		}

		limit := pruneLimit(t, p.X)
		// rowBest tracks only the value in the hot loops (a single
		// compare-and-move); its index is recovered by firstEq, and only
		// when needed.
		rowBest := negInf32
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl
		// wlast carries the d−2 value at i−1 (the diagonal
		// predecessor), which the in-place write would clobber.
		wlast := d2b[cl-1+o2]

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the vertical gap move exists —
			// the left move (gap in H) of the direction codes.
			wnew := d2b[o2]
			s, c := d1b[o1]+gap, codeLeft
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
			if tb != nil {
				tb.setCode(dbase, 0, c)
			}
			wlast = wnew
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			base := i
			// Exact-length row slices: the compiler proves almost all
			// k accesses in range, so the inner loop is close to
			// bounds-check-free. In place, outRow aliases d2v shifted
			// left by cl−d2cl cells; d2v[k] is read before outRow[k] is
			// stored, and writes trail reads because cl never decreases.
			outRow := out[base+oo:][:cnt]
			d2v := d2b[base+o2:][:cnt]
			d1r := d1b[base+o1:][:cnt]
			hRow := hq[base-1:][:cnt]
			vRow := vq[n-d+base:][:cnt]
			dlv := d1b[base-1+o1]
			if tb != nil {
				codeRow := tb.growCodes(cnt)
				for k := range outRow {
					s := wlast + int32(tab[hRow[k]][vRow[k]])
					wlast = d2v[k]
					c := codeDiag
					drv := d1r[k]
					// Both row kinds take the gap branch only when it
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
				tb.packRow(dbase+int32(base-cl), codeRow)
			} else {
				// Two cells per iteration: both d−2 reads issue before
				// the pair of in-place stores, so the may-alias
				// load/store pairs serialize half as often.
				k := 0
				for ; k+1 < cnt; k += 2 {
					w0, w1 := d2v[k], d2v[k+1]
					s0 := wlast + int32(tab[hRow[k]][vRow[k]])
					drv0 := d1r[k]
					if g := max(dlv, drv0) + gap; g > s0 {
						s0 = g
					}
					if s0 < limit {
						s0 = negInf32
					}
					if s0 > rowBest {
						rowBest = s0
					}
					outRow[k] = s0
					s1 := w0 + int32(tab[hRow[k+1]][vRow[k+1]])
					drv1 := d1r[k+1]
					if g := max(drv0, drv1) + gap; g > s1 {
						s1 = g
					}
					if s1 < limit {
						s1 = negInf32
					}
					if s1 > rowBest {
						rowBest = s1
					}
					outRow[k+1] = s1
					dlv = drv1
					wlast = w1
				}
				if k < cnt {
					s := wlast + int32(tab[hRow[k]][vRow[k]])
					if g := max(dlv, d1r[k]) + gap; g > s {
						s = g
					}
					if s < limit {
						s = negInf32
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
				}
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the horizontal gap move —
			// the up move (gap in V) of the direction codes.
			s, c := d1b[i-1+o1]+gap, codeUp
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[i+oo] = s
			if tb != nil {
				tb.setCode(dbase, i-cl, c)
			}
		}
		setGuards(out, width)

		// Recover the live sub-window and the row maximum from the
		// stored row: cheaper than branching on liveness and best-so-far
		// per cell inside the DP loop.
		row := out[bufPad:][:width]
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
		// Rotate: the row just written becomes d−1 and the old d−1 becomes
		// d−2; the next write target is the old d−2 buffer — which in
		// place is the new d−2 itself.
		d1b, d2b, out = out, d1b, d2b
		if inPlace {
			out = d2b
		}
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return true
}

// sweepRows bounds the antidiagonals one call of sweepLinearVec computes,
// over all the extensions it runs. Assembly has no preemption points, so a
// megabase extension run in a single call would hold off a GC
// stop-the-world for its whole duration; at this bound a call is some tens
// of microseconds. It is a variable only so that tests can re-enter the
// kernel every few rows.
var sweepRows = 4096

// sweepState is the loop state of one extension of the linear int32
// sweeps in the layout sweepLinearVec (row_amd64.s, through go_asm.h) reads
// when it takes the extension into its registers and writes back when it
// puts it down: the per-extension constants, the buffers of the lane it
// runs on, then what a row hands to the next. The names are linearSweep's.
type sweepState struct {
	hq, vq   *byte // cell 0 of the staged operands (Workspace.operands)
	sim      rowSim
	m, n     int
	capacity int
	gap      int32
	x        int32 // min(X, 1<<30): T − x cannot wrap, and clamps alike

	// The lane: buf1 and buf2 are the buffers seeded with antidiagonals 0
	// and −1, buf0 the one the first row is stored in (buf2 in place); the
	// kernel binds a queued extension to a lane by copying these, flip and
	// s3 from the extension that ended there, and seeding buf1 and buf2.
	buf1, buf2, buf0 uintptr
	// The rotation. out is the buffer the next row is stored in, d1 the
	// buffer of d−1; after a row, d1 becomes that row's buffer and out the
	// next one, out ^ flip ^ (d1 & s3): the other of two buffers in place
	// (flip = b1 ^ b2, s3 = 0), the one neither row holds of three (flip =
	// b0 ^ b1 ^ b2, s3 = all ones). d1b and d2b are the bases of d−1 and
	// d−2: cell i of each at base + 4i, the buffer's address plus
	// 4·(bufPad − its window start), which may lie before the buffer. All
	// are addresses in buffers the caller holds.
	d1, out       uintptr
	flip, s3      uintptr
	d1b, d2b      uintptr
	vd            uintptr // vq + n − d: the next antidiagonal d, as the kernel keeps it (diag)
	d1lo, d1hi    int     // the live bounds of d−1
	limit         int32
	d1best, best  int32
	bestI, bestD  int
	acc           statAcc // without antid, which is d, and without one cell and chunk a row (finish)
	clamped, done bool

	// The recording kind (record set; tracer.recordResident): every row
	// also writes the tracer's cls[d] and offs[d+1], and appends its cells'
	// 2-bit codes to the packed stream in dirs — byte dirb, whose bits
	// below bit position bits (mul = 1 << bits) are the carry. A row that
	// would end past cell cellEnd is not started: the call returns first.
	// A row's tail stores the byte and the word it has not completed in
	// sink instead of dirs (SWEEP_RECTAIL); nothing reads it.
	record           bool
	cls, offs        *int32
	dirs             *byte
	dirb, cellEnd    int
	carry, bits, mul uint32
	sink             [2]byte
}

// sweepQueue is what one call of sweepLinearVec runs: the extensions in
// its two lanes, the ones queued behind them, and the row budget the lanes
// share. The score kind runs the two lanes' rows alternately and, when an
// extension ends, binds the next queued one to its lane; the recording
// kind runs lanes[0] alone. A call returns when both lanes are empty
// (lanes[0] nil), when a recording ends or needs room, or when rows is
// spent.
type sweepQueue struct {
	lanes [2]*sweepState // lanes[1] is nil when only one extension is in flight
	// next and end are the addresses of the next queued state and of the
	// end of the queue, a run of sweepStates the caller holds.
	next, end uintptr
	rows      int // the antidiagonals the call may compute; at return, those it left
}

// begin sets st up for an extension over the staged operands hq and vq
// whose first row is antidiagonal 1, with acc holding antidiagonal 0. It
// runs on the lane bind gives it, or on the one the kernel binds it to.
func (st *sweepState) begin(hq, vq []byte, p *Params, capacity int, acc statAcc) {
	st.hq, st.vq, st.sim = unsafe.SliceData(hq), unsafe.SliceData(vq), rowSimOf(p.Scorer)
	st.m, st.n, st.capacity = len(hq), len(vq), capacity
	st.gap, st.x = int32(p.Gap), int32(min(p.X, 1<<30))
	st.vd = uintptr(unsafe.Pointer(st.vq)) + uintptr(st.n) - 1
	st.limit = pruneLimit(0, p.X)
	st.acc = acc
}

// bind puts st on the lane of buffers d1 and d2, seeded with antidiagonals
// 0 and −1, whose first row goes to out and whose rotation has three
// buffers, or two when out is d2.
func (st *sweepState) bind(d1, d2, out []int32) {
	addr := func(b []int32) uintptr { return uintptr(unsafe.Pointer(&b[0])) }
	st.buf1, st.buf2, st.buf0 = addr(d1), addr(d2), addr(out)
	st.d1, st.out = st.buf1, st.buf0
	st.flip = st.buf1 ^ st.buf2
	if st.buf0 != st.buf2 {
		st.flip ^= st.buf0
		st.s3 = ^uintptr(0)
	}
	st.d1b, st.d2b = st.buf1+4*bufPad, st.buf2+4*bufPad
}

// diag is the next antidiagonal of the extension: one past the last the
// kernel computed.
func (st *sweepState) diag() int {
	return int(uintptr(unsafe.Pointer(st.vq)) + uintptr(st.n) - st.vd)
}

// call runs sweepLinearVec's recording kind once on st, with a budget of
// sweepRows antidiagonals, and checks what it wrote back: it computed no
// more rows than the budget and d moved by the rows it computed (it may
// return early, for room).
func (st *sweepState) call() {
	d := st.diag()
	q := sweepQueue{lanes: [2]*sweepState{st}, rows: sweepRows}
	sweepLinearVec(&q)
	if q.rows < 0 || st.diag()-d != sweepRows-q.rows {
		panic("core: the row kernel broke its budget")
	}
}

// runQueue runs every extension of states in sweepLinearVec's score kind,
// two in flight at a time, the first two already bound to the two lanes
// (states[0] alone when there is one). It re-enters the kernel every
// sweepRows antidiagonals until the queue drains — or the calls have spent
// more rows than the extensions have antidiagonals, m + n each, which a
// kernel that loses a lane's progress would — then checks the calls
// against the states: every extension ended, the queue was taken to its
// end, and the antidiagonals computed are the rows the calls spent.
func runQueue(states []sweepState) {
	most := 0
	for i := range states {
		most += states[i].m + states[i].n
	}
	q := sweepQueue{lanes: [2]*sweepState{&states[0]}}
	if len(states) > 1 {
		q.lanes[1] = &states[1]
	}
	q.next = uintptr(unsafe.Pointer(&states[0])) + unsafe.Sizeof(states[0])*uintptr(len(q.lanes))
	q.end = uintptr(unsafe.Pointer(&states[0])) + unsafe.Sizeof(states[0])*uintptr(len(states))
	q.next = min(q.next, q.end)
	spent := 0
	for q.lanes[0] != nil {
		q.rows = sweepRows
		sweepLinearVec(&q)
		spent += sweepRows - q.rows
		if q.rows < 0 || q.rows > sweepRows || q.lanes[0] != nil && q.rows != 0 || spent > most {
			panic("core: the row kernel broke its budget")
		}
	}
	for i := range states {
		if !states[i].done {
			panic("core: the row kernel left a queued extension unfinished")
		}
		spent -= states[i].diag() - 1
	}
	if q.next != q.end || spent != 0 {
		panic("core: the row kernel broke its budget")
	}
}

// finish writes the Result of a completed sweep. Every computed row — d−1
// of them beside antidiagonal 0 — has one cell and one chunk of each size
// that the kernel does not count.
func (st *sweepState) finish(res *Result) {
	d := st.diag()
	rows := int64(d - 1)
	st.acc.antid = d
	st.acc.cells += rows
	st.acc.chunks32 += rows
	st.acc.chunks128 += rows
	st.acc.flush(&res.Stats)
	res.Stats.Clamped = st.clamped
	res.Score = int(st.best)
	res.EndH = st.bestI
	res.EndV = st.bestD - st.bestI
}

// rowWidth is the width of antidiagonal d's window as sweepLinearVec's row
// head computes it — the live bounds of d−1 widened by one, cut to the
// matrix and to capacity — or ≤ 0 when the extension has ended.
func (st *sweepState) rowWidth() int {
	d := st.diag()
	return min(min(st.d1hi+1, st.m)-max(st.d1lo, d-st.n)+1, st.capacity)
}

// sweepResident runs the antidiagonal loop of a score linearSweep in
// sweepLinearVec, from the state linearSweep has set up:
// b1 and b2 grown and seeded with antidiagonals 0 and −1, b0 grown when
// the layout is Standard3's, acc holding antidiagonal 0. It is a queue of
// one: the second lane stays empty.
func sweepResident(b *scoreBufs, hq, vq []byte, p *Params, capacity int, acc statAcc, res *Result) {
	out := b.b2
	if p.Algo == AlgoStandard3 {
		out = b.b0
	}
	var st [1]sweepState
	st[0].begin(hq, vq, p, capacity, acc)
	st[0].bind(b.b1, b.b2, out)
	runQueue(st[:])
	st[0].finish(res)
}

// sweepBatch runs the extensions of sides (linear, rowVec) as one queue of sweepLinearVec's score kind and writes each Result, with its
// tier outcome, to out. Their operands are staged once, back to back, in
// the workspace's arena — each between seqPad pad bytes, which neighbours
// share — and the two lanes are the workspace's wide buffers and alt's,
// each grown to the largest capacity in the queue; Stats.WorkBytes is
// still each extension's own, as linearSweep computes it.
func (w *Workspace) sweepBatch(p *Params, sides []Side, out []Result) {
	size, capacity := seqPad, 0
	for i := range sides {
		h, v := sides[i].views()
		size += h.Len() + v.Len() + 2*seqPad
		capacity = max(capacity, linearCapacity(h.Len(), v.Len(), p))
	}
	if cap(w.arena) < size {
		w.arena = make([]byte, size)
	}
	arena := w.arena[:size]
	if cap(w.states) < len(sides) {
		w.states = make([]sweepState, len(sides))
	}
	states := w.states[:len(sides)]

	nbuf := 2
	if p.Algo == AlgoStandard3 {
		nbuf = 3
	}
	var acc statAcc
	acc.observe(1, 1)
	clear(arena[:seqPad])
	off := seqPad
	staged := func(src []byte, reverse bool) []byte {
		seq := arena[off : off+len(src)]
		place(seq, src, reverse)
		off += len(src)
		clear(arena[off : off+seqPad])
		off += seqPad
		return seq
	}
	for i := range sides {
		h, v := sides[i].views()
		hq, vq := staged(h.data, h.rev), staged(v.data, !v.rev)
		c := linearCapacity(len(hq), len(vq), p)
		states[i] = sweepState{}
		states[i].begin(hq, vq, p, c, acc)
		out[i] = Result{Stats: Stats{
			TheoreticalCells: int64(len(hq)) * int64(len(vq)),
			WorkBytes:        nbuf * c * scoreBytes,
		}}
	}
	lanes := [2]*scoreBufs{&w.wide, &w.alt}
	for l := range min(len(lanes), len(states)) {
		b := lanes[l]
		b.b1 = growBuf(b.b1, capacity)
		b.b2 = growBuf(b.b2, capacity)
		first := b.b2
		if nbuf == 3 {
			b.b0 = growBuf(b.b0, capacity)
			first = b.b0
		}
		seedDiag(b.b1, 0)
		seedDiag(b.b2, negInf32)
		states[l].bind(b.b1, b.b2, first)
	}
	runQueue(states)
	for i := range states {
		states[i].finish(&out[i])
		narrowOutcome(states[i].m, states[i].n, p, &out[i])
	}
}
