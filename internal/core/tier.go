package core

import "math"

// The narrow kernel tier is the int16 instantiation of the generic score
// sweeps (dp.go, linear.go, affine.go): the same bodies as the int32 tier
// on half the working-buffer traffic (mirroring ksw2/SSW's 16-bit
// lanes). Overflow is handled the standard ksw2 way — a cheap headroom
// precheck plus a runtime saturation guard, tested once per antidiagonal,
// that makes the sweep bail out so the caller transparently re-runs the
// extension on the int32 instantiation.
//
// Bit-identity contract. A narrow run that completes (does not saturate)
// returns exactly the int32 tier's Result. The argument:
//
//   - Eligibility bounds X ≤ maxNarrowX (4095) and |Gap|,|GapOpen| ≤
//     maxNarrowGap (1024). With T ≥ 0 always, the prune limit T−X stays
//     in [−4095, satGuard16] on both tiers, so neither tier's pruneLimit
//     clamp ever engages and the limits are equal integers.
//   - Live cell values are identical exact integers in both widths: the
//     saturation guard bails before any value can exceed
//     satGuard16 + maxSim < MaxInt16, and live values are ≥ T−X ≥ −4095,
//     far from MinInt16 even after a gap penalty.
//   - Pruned cells store the width's own sentinel (negInf16 vs negInf32).
//     Sentinel-derived candidates lose every comparison against a
//     live-derived candidate in both widths (a live predecessor is
//     ≥ −4095, so live−|gap|−maxSim ≥ −5247 > negInf16+maxSim = −8065),
//     and a cell whose candidates are all sentinel-derived re-prunes in
//     both widths (−8065 < −4095 ≤ limit). So prune decisions, the live
//     window [lo,hi], rowBest and its first-wins index — and therefore
//     every Stats counter and the final Score/EndH/EndV — coincide.
//
// When the guard does fire the partial narrow attempt is discarded
// wholesale (values, stats, everything) and the extension re-runs wide;
// Result.Stats.Promoted records the event.

// Tier selects the kernel score width. The zero value is TierWide — the
// int32 instantiation — so existing configurations and goldens are
// unchanged unless a caller opts in.
type Tier uint8

const (
	// TierWide runs the int32 sweeps unconditionally.
	TierWide Tier = iota
	// TierNarrow attempts the int16 sweeps whenever the parameters are
	// narrow-eligible, relying on the runtime saturation guard (and the
	// transparent int32 promotion) for overflow safety.
	TierNarrow
	// TierAuto attempts the int16 sweeps only when the per-extension
	// headroom precheck proves saturation impossible, so an Auto run
	// never promotes and its SRAM footprint is certifiably narrow.
	TierAuto
)

// String names the tier for reports and fingerprints.
func (t Tier) String() string {
	switch t {
	case TierNarrow:
		return "narrow"
	case TierAuto:
		return "auto"
	default:
		return "wide"
	}
}

// negInf16 is the narrow tier's pruned-cell sentinel: far enough from the
// int16 minimum that adding similarity scores or gap penalties (bounded
// by narrowEligible) cannot wrap.
const negInf16 int16 = math.MinInt16 / 4

// narrowScoreBytes is the narrow tier's working-buffer element size (the
// sweeps take Stats.WorkBytes from the buffers' own element size, which
// is this); the ipukernel SRAM model derives tile footprints from it.
const narrowScoreBytes = 2

// NarrowScoreBytes and WideScoreBytes export the per-cell working-buffer
// element sizes of the two kernel tiers for the ipukernel SRAM model.
const (
	NarrowScoreBytes = narrowScoreBytes
	WideScoreBytes   = scoreBytes
)

// satGuard16 is the saturation threshold: when an antidiagonal's best
// value exceeds it the narrow kernel bails out. The 512-point margin
// covers the largest per-antidiagonal growth (one per-symbol score,
// ≤ 127 for an int8 table), so every int16 operation up to and including
// the guarded antidiagonal is exact.
const satGuard16 = math.MaxInt16 - 512

const (
	// maxNarrowX bounds X so the prune limit T−X ≥ −4095 never reaches
	// either tier's pruneLimit clamp (see the bit-identity contract).
	maxNarrowX = 4095
	// maxNarrowGap bounds |Gap| and |GapOpen| so sentinel arithmetic
	// (negInf16 − |GapOpen| − |Gap|) stays far above MinInt16.
	maxNarrowGap = 1024
)

// narrowEligible reports whether the parameters satisfy the narrow
// tier's bit-identity preconditions. Ineligible extensions silently run
// wide regardless of the requested tier.
func narrowEligible(p Params) bool {
	return p.X <= maxNarrowX && -p.Gap <= maxNarrowGap && -p.GapOpen <= maxNarrowGap
}

// NarrowEligible exports narrowEligible: whether these parameters can run
// the int16 tier at all. The ipukernel SRAM model uses it to decide when
// a TierNarrow/TierAuto configuration must still provision wide buffers.
func (p Params) NarrowEligible() bool { return narrowEligible(p) }

// NarrowCapLen returns the largest min-side extension length for which
// NarrowHeadroom holds at the given maximum per-symbol score — the
// longest extension TierAuto will certifiably run narrow. A
// non-positive maxScore can never saturate, so the cap is unbounded.
func NarrowCapLen(maxScore int) int {
	if maxScore <= 0 {
		return math.MaxInt
	}
	return satGuard16 / maxScore
}

// NarrowHeadroom reports whether an extension of the given side lengths
// can be proven never to saturate int16: the best score is at most
// min(m,n) diagonal matches at maxScore each, so if that bound stays
// under satGuard16 the runtime guard cannot fire. TierAuto admits narrow
// runs only under this proof; the ipukernel SRAM model uses the same
// predicate to certify narrow-only tile buffers.
func NarrowHeadroom(m, n, maxScore int) bool {
	if maxScore <= 0 {
		return true
	}
	return int64(min(m, n))*int64(maxScore) <= satGuard16
}

// useNarrow resolves the tier choice for one extension.
func useNarrow(m, n int, p *Params) bool {
	switch p.Tier {
	case TierNarrow:
		return narrowEligible(*p)
	case TierAuto:
		return narrowEligible(*p) && NarrowHeadroom(m, n, p.Scorer.MaxScore())
	default:
		return false
	}
}
