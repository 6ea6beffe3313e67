package core

import "unsafe"

// Affine runs a Gotoh affine-gap X-Drop extension. It allocates its own
// workspace; use (*Workspace).Affine in hot loops.
func Affine(h, v View, p Params) Result {
	var w Workspace
	return w.Affine(h, v, p)
}

// Affine runs the affine-gap X-Drop extension on the int32 tier using
// the workspace buffers.
func (w *Workspace) Affine(h, v View, p Params) Result {
	p.Algo = AlgoAffine
	return w.sweepWide(h, v, p)
}

// affineSweep is the affine-gap (Gotoh) X-Drop score sweep backing the
// ksw2-like baseline (§6.2), written once for both score widths. A gap of
// length k costs GapOpen + k·Gap, so with ksw2-style penalties long gaps
// are penalised less per column than under the linear scheme, which
// genuinely enlarges the live search space — the behaviour the paper
// names as the reason ksw2 trails SeqAn.
//
// The recurrence keeps three channels per cell:
//
//	E(i,j) = max(E(i,j−1), H(i,j−1)+GapOpen) + Gap
//	F(i,j) = max(F(i−1,j), H(i−1,j)+GapOpen) + Gap
//	H(i,j) = max(H(i−1,j−1)+Sim(h_i,v_j), E(i,j), F(i,j))
//
// X-Drop pruning applies to every channel against the running best T.
// A cell is live while any channel survives; at the boundaries the H
// value equals the single surviving gap channel.
//
// Like the linear sweep, the loop runs on NegInf-padded buffers and
// sweep-order operands (see dp.go) — one inner loop for every view
// direction — with boundary cells peeled, liveness recovered by scanning
// the stored channels, and trace counters accumulated in locals.
//
// ok is false when an antidiagonal's best H exceeded guard (int16
// saturation, see tier.go; H dominates E and F wherever it is live): the
// partial attempt is void and the caller must re-run on the wide tier.
func affineSweep[S score](b *scoreBufs[S], hq, vq []byte, p Params, negInf, guard S) (Result, bool) {
	m, n := len(hq), len(vq)
	delta := min(m, n) + 1
	b.b0 = growBuf(b.b0, delta)
	b.b1 = growBuf(b.b1, delta)
	b.b2 = growBuf(b.b2, delta)
	b.e0 = growBuf(b.e0, delta)
	b.e1 = growBuf(b.e1, delta)
	b.f0 = growBuf(b.f0, delta)
	b.f1 = growBuf(b.f1, delta)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        7 * delta * int(unsafe.Sizeof(negInf)),
	}}

	tab := p.Scorer.Table()
	gape := S(p.Gap)
	// Hoist the gap-open+extend sum: max(a,b)+c ≡ max(a+c, b+c) (exact —
	// working values are far inside the range at either width: int32 by
	// orders of magnitude, int16 by narrowEligible's penalty bounds), so
	// each E/F update is two independent adds feeding one max instead of
	// the serial add→max→add chain the textbook recurrence spells.
	goe := S(p.GapOpen) + gape

	// d1 buffers hold antidiagonal d−1 (all three channels), d2h holds
	// d−2 (only H is read from it); out* are written for d. Window
	// starts and the live bounds of d−1 rotate as plain scalars.
	d1h, d1e, d1f := b.b1, b.e1, b.f1
	d2h := b.b2
	outH, outE, outF := b.b0, b.e0, b.f0
	seedDiag(d1h, 0, negInf)
	seedDiag(d1e, negInf, negInf)
	seedDiag(d1f, negInf, negInf)
	seedDiag(d2h, negInf, negInf)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	best, t := S(0), S(0)
	bestI, bestD := 0, 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		limit := pruneLimit(t, p.X, negInf)
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the E channel exists, and it
			// is also the cell's H value (H = max(−∞, E, −∞)).
			e := max(d1e[o1]+gape, d1h[o1]+goe)
			if e < limit {
				e = negInf
			}
			outH[oo], outE[oo], outF[oo] = e, e, negInf
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			base := i
			// Exact-length row slices; d1's H and F values at i−1 are
			// carried in registers instead of re-loaded.
			ohRow := outH[base+oo:][:cnt]
			oeRow := outE[base+oo:][:cnt]
			ofRow := outF[base+oo:][:cnt]
			d2v := d2h[base-1+o2:][:cnt]
			d1hr := d1h[base+o1:][:cnt]
			d1er := d1e[base+o1:][:cnt]
			d1fr := d1f[base+o1:][:cnt]
			hlv := d1h[base-1+o1]
			flv := d1f[base-1+o1]
			hRow := hq[base-1:][:cnt]
			vRow := vq[n-d+base:][:cnt]
			for k := range ohRow {
				hrv := d1hr[k]
				e := max(d1er[k]+gape, hrv+goe)
				f := max(flv+gape, hlv+goe)
				flv = d1fr[k]
				s := d2v[k] + S(tab[hRow[k]][vRow[k]])
				hlv = hrv
				if e > s {
					s = e
				}
				if f > s {
					s = f
				}
				if s < limit {
					s = negInf
				}
				if e < limit {
					e = negInf
				}
				if f < limit {
					f = negInf
				}
				ohRow[k], oeRow[k], ofRow[k] = s, e, f
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the F channel exists, and
			// it is also the cell's H value (H = max(−∞, −∞, F)).
			f := max(d1f[i-1+o1]+gape, d1h[i-1+o1]+goe)
			if f < limit {
				f = negInf
			}
			k := i + oo
			outH[k], outE[k], outF[k] = f, negInf, f
		}
		width := cu - cl + 1
		setGuards(outH, width, negInf)
		setGuards(outE, width, negInf)
		setGuards(outF, width, negInf)

		// Recover the live sub-window (any surviving channel) and the
		// row's best H from the stored channels: cheaper than branching
		// on liveness and best-so-far per cell inside the DP loop.
		rowH := outH[bufPad:][:width]
		rowE := outE[bufPad:][:width]
		rowF := outF[bufPad:][:width]
		for k := 0; k < width; k++ {
			if rowH[k] != negInf || rowE[k] != negInf || rowF[k] != negInf {
				lo = cl + k
				break
			}
		}
		rowBest, rowBestI := negInf, -1
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if rowH[k] != negInf || rowE[k] != negInf || rowF[k] != negInf {
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

		if rowBest > guard {
			return Result{}, false
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
		// Rotate: the d−2 H buffer becomes the next H write target; the
		// E/F channels ping-pong between d−1 and the write target.
		d2h, d1h, outH = d1h, outH, d2h
		d1e, outE = outE, d1e
		d1f, outF = outF, d1f
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return res, true
}
