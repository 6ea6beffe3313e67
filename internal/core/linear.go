package core

import "unsafe"

// Restricted2 runs the paper's memory-restricted X-Drop extension
// (Algorithm 1). It allocates its own workspace; use
// (*Workspace).Restricted2 in hot loops.
func Restricted2(h, v View, p Params) Result {
	var w Workspace
	return w.Restricted2(h, v, p)
}

// Restricted2 is the paper's contribution (§3): an X-Drop extension that
// stores only two antidiagonals of bounded length δb (2δb scores total
// instead of Standard3's 3δ). It is linearSweep's in-place layout on the
// int32 tier.
func (w *Workspace) Restricted2(h, v View, p Params) Result {
	p.Algo = AlgoRestricted2
	var r Result
	w.sweepWide(h, v, &p, &r)
	return r
}

// Standard3 runs Zhang's three-antidiagonal X-Drop extension. It allocates
// its own workspace; use (*Workspace).Standard3 in hot loops.
func Standard3(h, v View, p Params) Result {
	var w Workspace
	return w.Standard3(h, v, p)
}

// Standard3 runs Zhang's three-antidiagonal X-Drop extension using the
// workspace buffers. Memory footprint is 3δ scores, δ = min(m,n)+1
// (Fig. 3, left). It is linearSweep's three-buffer layout on the int32
// tier.
func (w *Workspace) Standard3(h, v View, p Params) Result {
	p.Algo = AlgoStandard3
	var r Result
	w.sweepWide(h, v, &p, &r)
	return r
}

// linearCapacity resolves the working-window bound of a linear-gap sweep:
// Restricted2 honours DeltaB, Standard3 is unbounded, i.e. δ = min(m,n)+1.
func linearCapacity(m, n int, p *Params) int {
	delta := min(m, n) + 1
	if p.Algo == AlgoRestricted2 && p.DeltaB > 0 && p.DeltaB < delta {
		return p.DeltaB
	}
	return delta
}

// linearSweep is the linear-gap X-Drop score sweep, written once for both
// score widths and both buffer layouts.
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
// The sweep runs on NegInf-padded buffers (see dp.go) and on operands
// laid out in sweep order (Workspace.operands): hq and vq both run
// unit-stride upward along an antidiagonal whatever the view directions
// were, so there is one inner loop. The i=0 and j=0 boundary cells are
// peeled out of it, and interior cells read their neighbors through
// exact-length row slices with no window checks. The live sub-window is
// recovered by scanning the stored row's pruned fringes instead of
// branching on liveness per cell, the row's argmax only when the row sets
// a new best (or the δb clamp needs the previous one), and trace counters
// accumulate in locals (statAcc), flushed once at the end.
//
// Two bodies. The Go loop below is the sweep for both score widths, every
// GOARCH and the purego build tag. On amd64 with AVX2 (rowVec; see
// row_amd64.go) the int32 instantiation instead runs the whole loop, first
// row to last, inside sweepLinearVec (row_amd64.s) — the paper's codelet
// shape: one resident kernel per extension, not one call per row — eight
// cells per instruction, the last vector of a row masked, the similarity
// in the form the scorer allows (rowSim). The assembly is this loop
// statement for statement; the differences are of form only:
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
// Both bodies store identical rows in identical buffers and return
// identical Results, so nothing downstream — Stats, KernelFingerprint,
// caches — knows which ran (TestSweepKernelMatchesGeneric,
// TestVectorSweepMatchesGenericSweep).
//
// It writes the extension's Result to *res and reports false when an
// antidiagonal's best value exceeded guard (int16 saturation, see
// tier.go): the partial attempt is void and the caller must re-run on the
// wide tier.
func linearSweep[S score](b *scoreBufs[S], hq, vq []byte, p *Params, negInf, guard S, res *Result) bool {
	m, n := len(hq), len(vq)
	capacity := linearCapacity(m, n, p)
	inPlace := p.Algo != AlgoStandard3
	b.b1 = growBuf(b.b1, capacity)
	b.b2 = growBuf(b.b2, capacity)

	// d1b holds antidiagonal d−1; d2b holds d−2. In place, antidiagonal d
	// overwrites d−2 (out aliases d2b); otherwise out is the third
	// buffer. Window starts and the live bounds of d−1 rotate as plain
	// scalars.
	d1b, d2b := b.b1, b.b2
	out, nbuf := d2b, 2
	if !inPlace {
		b.b0 = growBuf(b.b0, capacity)
		out, nbuf = b.b0, 3
	}

	*res = Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        nbuf * capacity * int(unsafe.Sizeof(negInf)),
	}}

	tab := p.Scorer.Table()
	gap := S(p.Gap)

	seedDiag(d1b, 0, negInf)
	seedDiag(d2b, negInf, negInf)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	if wide, ok := any(b).(*scoreBufs[int32]); ok && rowVec {
		// The resident vector sweep runs the loop below, row for row, and
		// leaves the same cells in the same buffers. No int32 exceeds the
		// wide tier's guard, so it always completes.
		sweepResident(wide, hq, vq, p, capacity, acc, res)
		return true
	}

	best, t := S(0), S(0)
	bestI, bestD := 0, 0
	d1best := S(0) // the maximum of antidiagonal d−1

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

		limit := pruneLimit(t, p.X, negInf)
		// rowBest tracks only the value in the hot loops (a single
		// compare-and-move); its index is recovered by firstEq, and only
		// when needed.
		rowBest := negInf
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl
		// wlast carries the d−2 value at i−1 (the diagonal
		// predecessor), which the in-place write would clobber.
		wlast := d2b[cl-1+o2]

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the vertical gap move exists.
			wnew := d2b[o2]
			s := d1b[o1] + gap
			if s < limit {
				s = negInf
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
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
			// Two cells per iteration: both d−2 reads issue before the
			// pair of in-place stores, so the may-alias load/store pairs
			// serialize half as often.
			dlv := d1b[base-1+o1]
			k := 0
			for ; k+1 < cnt; k += 2 {
				w0, w1 := d2v[k], d2v[k+1]
				s0 := wlast + S(tab[hRow[k]][vRow[k]])
				drv0 := d1r[k]
				if g := max(dlv, drv0) + gap; g > s0 {
					s0 = g
				}
				if s0 < limit {
					s0 = negInf
				}
				if s0 > rowBest {
					rowBest = s0
				}
				outRow[k] = s0
				s1 := w0 + S(tab[hRow[k+1]][vRow[k+1]])
				drv1 := d1r[k+1]
				if g := max(drv0, drv1) + gap; g > s1 {
					s1 = g
				}
				if s1 < limit {
					s1 = negInf
				}
				if s1 > rowBest {
					rowBest = s1
				}
				outRow[k+1] = s1
				dlv = drv1
				wlast = w1
			}
			if k < cnt {
				s := wlast + S(tab[hRow[k]][vRow[k]])
				if g := max(dlv, d1r[k]) + gap; g > s {
					s = g
				}
				if s < limit {
					s = negInf
				}
				if s > rowBest {
					rowBest = s
				}
				outRow[k] = s
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the horizontal gap move.
			s := d1b[i-1+o1] + gap
			if s < limit {
				s = negInf
			}
			if s > rowBest {
				rowBest = s
			}
			out[i+oo] = s
		}
		if rowBest > guard {
			*res = Result{}
			return false
		}
		width := cu - cl + 1
		setGuards(out, width, negInf)

		// Recover the live sub-window and the row maximum from the
		// stored row: cheaper than branching on liveness and best-so-far
		// per cell inside the DP loop.
		row := out[bufPad:][:width]
		for k := 0; k < width; k++ {
			if row[k] != negInf {
				lo = cl + k
				break
			}
		}
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if row[k] != negInf {
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

// sweepRows bounds the antidiagonals one call of sweepLinearVec computes.
// Assembly has no preemption points, so a megabase extension run in a
// single call would hold off a GC stop-the-world for its whole duration;
// at this bound a call is some tens of microseconds. It is a variable only
// so that tests can re-enter the kernel every few rows.
var sweepRows = 4096

// sweepState is the loop state of both linear int32 sweeps in the layout
// sweepLinearVec (row_amd64.s, through go_asm.h) reads at entry and writes
// back when it returns: the per-extension constants, then what a row hands
// to the next. Inside a call that state lives in registers. The names are
// linearSweep's and fusedLinear's.
type sweepState struct {
	hq, vq   *byte // cell 0 of the staged operands (Workspace.operands)
	sim      rowSim
	m, n     int
	capacity int
	gap      int32
	x        int32 // min(X, 1<<30): T − x cannot wrap, and clamps alike

	// The rotation. out is the buffer the next row is stored in, d1 the
	// buffer of d−1; after a row, d1 becomes that row's buffer and out the
	// next one, out ^ flip ^ (d1 & s3): the other of two buffers in place
	// (flip = b1 ^ b2, s3 = 0), the one neither row holds of three (flip =
	// b0 ^ b1 ^ b2, s3 = all ones). d1b and d2b are the bases of d−1 and
	// d−2: cell i of each at base + 4i, the buffer's address plus
	// 4·(bufPad − its window start), which may lie before the buffer —
	// hence uintptr; the buffers themselves are held by the caller.
	d1, out       *int32
	flip, s3      uintptr
	d1b, d2b      uintptr
	d, d1lo, d1hi int // the next antidiagonal; the live bounds of d−1
	limit         int32
	d1best, best  int32
	bestI, bestD  int
	acc           statAcc // without antid, which is d, and without one cell and chunk a row (finish)
	rows          int     // the antidiagonals a call may compute; at return, those it left
	stop          uintptr // a call's scratch: vq + n − d where its rows run out
	clamped, done bool

	// The recording kind (record set; tracer.recordResident): every row
	// also writes the tracer's cls[d] and offs[d+1], and appends its cells'
	// 2-bit codes to the packed stream in dirs — byte dirb, whose bits
	// below bit position bits (mul = 1 << bits) are the carry. A row that
	// would end past cell cellEnd is not started: the call returns first.
	record           bool
	cls, offs        *int32
	dirs             *byte
	dirb, cellEnd    int
	carry, bits, mul uint32
}

// begin sets st up for an extension whose buffers linearSweep or
// fusedLinear have grown and seeded — d−1 in d1, d−2 in d2, the first row
// going to out, acc holding antidiagonal 0 — and whose rotation has three
// buffers, or two when out is d2.
func (st *sweepState) begin(hq, vq []byte, p *Params, capacity int, d1, d2, out []int32, acc statAcc) {
	st.hq, st.vq, st.sim = unsafe.SliceData(hq), unsafe.SliceData(vq), rowSimOf(p.Scorer)
	st.m, st.n, st.capacity = len(hq), len(vq), capacity
	st.gap, st.x = int32(p.Gap), int32(min(p.X, 1<<30))
	addr := func(b []int32) uintptr { return uintptr(unsafe.Pointer(&b[0])) }
	st.d1, st.out = &d1[0], &out[0]
	st.flip = addr(d1) ^ addr(d2)
	if &out[0] != &d2[0] {
		st.flip ^= addr(out)
		st.s3 = ^uintptr(0)
	}
	st.d1b, st.d2b = addr(d1)+4*bufPad, addr(d2)+4*bufPad
	st.d = 1
	st.limit = pruneLimit(0, p.X, negInf32)
	st.acc = acc
}

// call runs sweepLinearVec once, with a budget of sweepRows antidiagonals,
// and checks what it wrote back: it computed no more rows than the budget,
// d moved by the rows it computed, and a score call that has not finished
// spent the whole budget (a recording may return early, for room).
func (st *sweepState) call() {
	d := st.d
	st.rows = sweepRows
	sweepLinearVec(st)
	if st.rows < 0 || st.d-d != sweepRows-st.rows || !st.done && !st.record && st.rows != 0 {
		panic("core: the row kernel broke its budget")
	}
}

// finish writes the Result of a completed sweep. Every computed row — d−1
// of them beside antidiagonal 0 — has one cell and one chunk of each size
// that the kernel does not count.
func (st *sweepState) finish(res *Result) {
	rows := int64(st.d - 1)
	st.acc.antid = st.d
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
	return min(min(st.d1hi+1, st.m)-max(st.d1lo, st.d-st.n)+1, st.capacity)
}

// sweepResident runs the antidiagonal loop of linearSweep's int32
// instantiation in sweepLinearVec, from the state linearSweep has set up:
// b1 and b2 grown and seeded with antidiagonals 0 and −1, b0 grown when
// the layout is Standard3's, acc holding antidiagonal 0.
func sweepResident(b *scoreBufs[int32], hq, vq []byte, p *Params, capacity int, acc statAcc, res *Result) {
	out := b.b2
	if p.Algo == AlgoStandard3 {
		out = b.b0
	}
	var st sweepState
	st.begin(hq, vq, p, capacity, b.b1, b.b2, out, acc)
	for !st.done {
		st.call()
	}
	st.finish(res)
}
