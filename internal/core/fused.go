package core

// The recording sweeps: a scoring sweep that also records 2/4-bit
// direction codes as it goes. They are the only code that produces a
// Trace, and serve both traceback schedules — fused (FusedExtend*: the
// one sweep delivers the Result and the Trace, no second pass) and
// two-pass (Traceback*: the score sweep ran first, this is the second
// pass and only its Trace is kept). The loops are structured like the
// score sweeps' Go loops (NegInf-padded rotating buffers, sweep-order
// operands, peeled boundaries, fringe-scan liveness recovery, statAcc
// counters) and the linear one computes its rows with the score sweep's
// vector arithmetic (rowCodesVec: the direction codes fall out of the
// compare masks the row computes anyway), so recording costs roughly one
// sweep — and the returned Result is
// bit-identical to the score sweeps' in every field, including the trace
// counters.
//
// Eligibility for the fused schedule (FusedEligible): extensions that
// score on the int32 tier only. Narrow (int16) extensions keep the
// two-pass schedule — fusing them would change the batch tier counters —
// and AlgoReference keeps its full-matrix oracle as the score pass. The
// memory trade is explicit: a fused recording lives on its thread for the
// whole scoring pass, so the SRAM model charges one direction arena per
// thread (ipukernel.TileMemoryBytes) instead of the single serialized
// second-pass arena.

// TraceMode selects the traceback schedule: whether direction data is
// recorded inside the scoring pass or by a second pass. Either way the
// recording sweep is the same code; the mode decides how many sweeps an
// extension costs and how the SRAM model charges the direction arena.
type TraceMode int

const (
	// TraceModeAuto fuses recording into the scoring pass for eligible
	// extensions whose direction-arena bound fits the per-thread fused
	// budget, and runs the rest two-pass. The default.
	TraceModeAuto TraceMode = iota
	// TraceModeReplay always uses the two-pass schedule: the score sweep,
	// then the recording sweep as a serialized second pass.
	TraceModeReplay
	// TraceModeFused fuses every eligible extension regardless of the
	// budget heuristic; SRAM admission still certifies the tile.
	TraceModeFused
)

// String names the mode for flags, config echoes and fingerprint dumps.
func (m TraceMode) String() string {
	switch m {
	case TraceModeReplay:
		return "replay"
	case TraceModeFused:
		return "fused"
	default:
		return "auto"
	}
}

// FusedEligible reports whether an m×n extension under p can use the
// fused single-pass schedule: extensions scored by the wide (int32)
// linear and affine sweeps only. Narrow-tier extensions and the
// Reference oracle keep the two-pass schedule.
func FusedEligible(m, n int, p Params) bool {
	if p.Algo == AlgoReference {
		return false
	}
	return !useNarrow(m, n, p)
}

// record runs the recording sweep of p.Algo's recurrence over views h
// and v and encodes the walked ops into the Trace's Cigar; rev consumes
// the walk-order ops (best cell → origin) back to front, which for
// forward views is view-forward order.
func (w *Workspace) record(h, v View, p Params, rev bool) (Result, Trace, error) {
	defer w.tb.trim()
	if err := p.Validate(); err != nil {
		return Result{}, Trace{}, err
	}
	var r Result
	var tr Trace
	var err error
	if p.Algo == AlgoAffine {
		r, tr, err = w.fusedAffine(h, v, p)
	} else {
		r, tr, err = w.fusedLinear(h, v, p)
	}
	if err != nil {
		return Result{}, Trace{}, err
	}
	tr.Cigar = w.tb.encodeOps(rev)
	return r, tr, nil
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
// / Reference window semantics, selected by p.Algo through
// linearCapacity, so a recorded Reference keeps its unbounded window).
// Rows are linearSweep's padded-window walk with a per-cell direction code
// folded in: rowCodesVec where there is a vector body (rowVec), the Go loop
// — the complete recurrence — otherwise. Unlike the score sweep it leaves
// the assembly after every row: what happens between rows here — the
// tracer's window index, code packing, ErrTraceTooLarge — is Go. The
// rotation uses three distinct buffers (like Standard3), so no row needs an
// in-place aliasing carry.
func (w *Workspace) fusedLinear(h, v View, p Params) (Result, Trace, error) {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	capacity := linearCapacity(m, n, p)
	w.wide.b0 = growBuf(w.wide.b0, capacity)
	w.wide.b1 = growBuf(w.wide.b1, capacity)
	w.wide.b2 = growBuf(w.wide.b2, capacity)
	tb := &w.tb
	tb.reset(2, m+n+1)

	res := Result{Stats: Stats{TheoreticalCells: int64(m) * int64(n)}}
	if p.Algo == AlgoStandard3 {
		res.Stats.WorkBytes = 3 * delta * scoreBytes
	} else {
		res.Stats.WorkBytes = 2 * capacity * scoreBytes
	}

	tab := p.Scorer.Table()
	sim := rowSimOf(p.Scorer)
	gap := int32(p.Gap)
	hq, vq := w.operands(h, v)

	out, d1b, d2b := w.wide.b0, w.wide.b1, w.wide.b2
	seedDiag(d1b, 0, negInf32)
	seedDiag(d2b, negInf32, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	var trc Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone)

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
		codes := tb.growCodes(width)
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
			codes[0] = c
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			kbase := i
			outRow := out[kbase+oo:][:cnt]
			codeRow := codes[kbase-cl:][:cnt]
			d2v := d2b[kbase-1+o2:][:cnt]
			d1r := d1b[kbase+o1:][:cnt]
			hRow := hq[kbase-1:][:cnt]
			vRow := vq[n-d+kbase:][:cnt]
			if rowVec {
				rowBest = max(rowBest, rowCodesVec(&outRow[0], &d2b[kbase+o2], &d1r[0],
					&hRow[0], &vRow[0], &sim, cnt, d2v[0], gap, limit, &codeRow[0]))
			} else {
				// The vector body's only oracle: with rowVec off this loop
				// computes every cell of every row.
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
			}
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
			codes[i-cl] = c
		}
		setGuards(out, width, negInf32)
		tb.packRow(dbase, codes)

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
	w.wide.b0, w.wide.b1, w.wide.b2 = out, d1b, d2b

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	trc.Score, trc.EndH, trc.EndV = res.Score, res.EndH, res.EndV
	trc.Clamped = res.Stats.Clamped
	trc.TraceBytes = tb.traceBytes()
	if err := tb.walkLinear(h, v, bestI, bestD); err != nil {
		return Result{}, Trace{}, err
	}
	return res, trc, nil
}

// fusedAffine is the Gotoh affine-gap recording sweep: affineSweep's
// padded three-channel walk with a 4-bit nibble per cell (H source in the
// low 2 bits, E/F gap-extension flags above) folded into the scoring
// loop.
func (w *Workspace) fusedAffine(h, v View, p Params) (Result, Trace, error) {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	w.wide.b0 = growBuf(w.wide.b0, delta)
	w.wide.b1 = growBuf(w.wide.b1, delta)
	w.wide.b2 = growBuf(w.wide.b2, delta)
	w.wide.e0 = growBuf(w.wide.e0, delta)
	w.wide.e1 = growBuf(w.wide.e1, delta)
	w.wide.f0 = growBuf(w.wide.f0, delta)
	w.wide.f1 = growBuf(w.wide.f1, delta)
	tb := &w.tb
	tb.reset(4, m+n+1)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        7 * delta * scoreBytes,
	}}

	tab := p.Scorer.Table()
	gape := int32(p.Gap)
	gapo := int32(p.GapOpen)
	goe := gapo + gape
	hq, vq := w.operands(h, v)

	d1h, d1e, d1f := w.wide.b1, w.wide.e1, w.wide.f1
	d2h := w.wide.b2
	outH, outE, outF := w.wide.b0, w.wide.e0, w.wide.f0
	seedDiag(d1h, 0, negInf32)
	seedDiag(d1e, negInf32, negInf32)
	seedDiag(d1f, negInf32, negInf32)
	seedDiag(d2h, negInf32, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	var trc Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone)

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		limit := pruneLimit(t, p.X, negInf32)
		width := cu - cl + 1
		dbase := tb.beginDiag(cl, width)
		if dbase < 0 {
			return Result{}, Trace{}, ErrTraceTooLarge
		}
		codes := tb.growCodes(width)
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the E channel exists, and it
			// is also the cell's H value.
			pe := d1e[o1]
			ph := d1h[o1]
			e := max(pe+gape, ph+goe)
			var c byte
			if pe+gape >= ph+goe {
				c |= afEExt
			}
			if e < limit {
				e = negInf32
			} else {
				c |= afSrcE
			}
			outH[oo], outE[oo], outF[oo] = e, e, negInf32
			codes[0] = c
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			kbase := i
			ohRow := outH[kbase+oo:][:cnt]
			oeRow := outE[kbase+oo:][:cnt]
			ofRow := outF[kbase+oo:][:cnt]
			codeRow := codes[kbase-cl:][:cnt]
			d2v := d2h[kbase-1+o2:][:cnt]
			d1hr := d1h[kbase+o1:][:cnt]
			d1er := d1e[kbase+o1:][:cnt]
			d1fr := d1f[kbase+o1:][:cnt]
			hlv := d1h[kbase-1+o1]
			flv := d1f[kbase-1+o1]
			hRow := hq[kbase-1:][:cnt]
			vRow := vq[n-d+kbase:][:cnt]
			for k := range ohRow {
				hrv := d1hr[k]
				erv := d1er[k]
				e := max(erv+gape, hrv+goe)
				var c byte
				if erv+gape >= hrv+goe {
					c = afEExt
				}
				f := max(flv+gape, hlv+goe)
				if flv+gape >= hlv+goe {
					c |= afFExt
				}
				flv = d1fr[k]
				s := d2v[k] + int32(tab[hRow[k]][vRow[k]])
				hlv = hrv
				src := afSrcDiag
				if e > s {
					s = e
					src = afSrcE
				}
				if f > s {
					s = f
					src = afSrcF
				}
				if s < limit {
					s = negInf32
					src = 0
				}
				if e < limit {
					e = negInf32
				}
				if f < limit {
					f = negInf32
				}
				ohRow[k], oeRow[k], ofRow[k] = s, e, f
				codeRow[k] = c | src
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the F channel exists, and
			// it is also the cell's H value.
			pf := d1f[i-1+o1]
			ph := d1h[i-1+o1]
			f := max(pf+gape, ph+goe)
			var c byte
			if pf+gape >= ph+goe {
				c |= afFExt
			}
			if f < limit {
				f = negInf32
			} else {
				c |= afSrcF
			}
			k := i + oo
			outH[k], outE[k], outF[k] = f, negInf32, f
			codes[i-cl] = c
		}
		setGuards(outH, width, negInf32)
		setGuards(outE, width, negInf32)
		setGuards(outF, width, negInf32)
		tb.packRow(dbase, codes)

		rowH := outH[bufPad:][:width]
		rowE := outE[bufPad:][:width]
		rowF := outF[bufPad:][:width]
		lo, hi := -1, -1
		for k := 0; k < width; k++ {
			if rowH[k] != negInf32 || rowE[k] != negInf32 || rowF[k] != negInf32 {
				lo = cl + k
				break
			}
		}
		rowBest, rowBestI := negInf32, -1
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if rowH[k] != negInf32 || rowE[k] != negInf32 || rowF[k] != negInf32 {
					hi = cl + k
					break
				}
			}
			for k := lo - cl; k <= hi-cl; k++ {
				if s := rowH[k]; s > rowBest {
					rowBest, rowBestI = s, cl+k
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
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		d2h, d1h, outH = d1h, outH, d2h
		d1e, outE = outE, d1e
		d1f, outF = outF, d1f
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}
	w.wide.b0, w.wide.b1, w.wide.b2 = outH, d1h, d2h
	w.wide.e0, w.wide.e1, w.wide.f0, w.wide.f1 = outE, d1e, outF, d1f

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	trc.Score, trc.EndH, trc.EndV = res.Score, res.EndH, res.EndV
	trc.Clamped = res.Stats.Clamped
	trc.TraceBytes = tb.traceBytes()
	if err := tb.walkAffine(h, v, bestI, bestD); err != nil {
		return Result{}, Trace{}, err
	}
	return res, trc, nil
}
