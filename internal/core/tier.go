package core

import "math"

// The narrow kernel tier is a score width of the modeled device, not a
// second host sweep. On the device a narrow-tier extension runs on int16
// buffers — half the working-buffer bytes, like ksw2/SSW's 16-bit lanes —
// under a runtime guard that abandons the attempt once an antidiagonal's
// best exceeds satGuard16 and re-runs the extension on int32. The host runs
// every extension on the one int32 sweep and derives that outcome from its
// Result (narrowOutcome).
//
// The derivation is exact. An int16 sweep computes the int32 sweep's rows,
// cell for cell, until an antidiagonal's best exceeds satGuard16:
//
//   - Eligibility (narrowEligible) bounds X ≤ maxNarrowX and |Gap|, |GapOpen|
//     ≤ maxNarrowGap, so the prune limit T−X ≥ −4095 never reaches either
//     width's pruneLimit clamp, and live values, gap penalties and the
//     int16 sentinel (MinInt16/4) stay exact: the guard's 512-point margin
//     covers one antidiagonal's growth.
//   - A sentinel-derived candidate loses to every live-derived one, and a
//     cell with only sentinel-derived candidates re-prunes, at either
//     width; so prune decisions, the live window, each antidiagonal's best
//     and its first-wins index — every Stats counter, Score, EndH and EndV
//     — coincide.
//
// The Score is the largest of those antidiagonal bests, so the int16
// attempt completes exactly when Score ≤ satGuard16. Its Result is then
// the int32 Result with WorkBytes at 2-byte scores (Stats.Narrow);
// otherwise the device promotes, and the Result is the int32 one
// (Stats.Promoted).

// Tier selects the modeled device's kernel score width. The zero value is
// TierWide — int32 scores — so existing configurations and goldens are
// unchanged unless a caller opts in.
type Tier uint8

const (
	// TierWide models int32 scores unconditionally.
	TierWide Tier = iota
	// TierNarrow attempts int16 scores whenever the parameters are
	// narrow-eligible, relying on the runtime saturation guard (and the
	// int32 promotion) for overflow safety.
	TierNarrow
	// TierAuto attempts int16 scores only when the per-extension headroom
	// precheck proves saturation impossible, so an Auto run never
	// promotes and its SRAM footprint is certifiably narrow.
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

// narrowScoreBytes is the narrow tier's working-buffer element size, in
// which narrowOutcome counts Stats.WorkBytes; the ipukernel SRAM model
// derives tile footprints from it.
const narrowScoreBytes = 2

// NarrowScoreBytes and WideScoreBytes export the per-cell working-buffer
// element sizes of the two kernel tiers for the ipukernel SRAM model.
const (
	NarrowScoreBytes = narrowScoreBytes
	WideScoreBytes   = scoreBytes
)

// satGuard16 is the saturation threshold: when an antidiagonal's best
// value exceeds it the narrow attempt is abandoned. The 512-point margin
// covers the largest per-antidiagonal growth (one per-symbol score,
// ≤ 127 for an int8 table), so every int16 operation up to and including
// the guarded antidiagonal is exact.
const satGuard16 = math.MaxInt16 - 512

const (
	// maxNarrowX bounds X so the prune limit T−X ≥ −4095 never reaches
	// either width's pruneLimit clamp.
	maxNarrowX = 4095
	// maxNarrowGap bounds |Gap| and |GapOpen| so int16 sentinel
	// arithmetic (MinInt16/4 − |GapOpen| − |Gap|) stays far above
	// MinInt16.
	maxNarrowGap = 1024
)

// narrowEligible reports whether the parameters satisfy the narrow
// tier's exactness preconditions. Ineligible extensions silently run
// wide regardless of the requested tier.
func narrowEligible(p Params) bool {
	return p.X <= maxNarrowX && -p.Gap <= maxNarrowGap && -p.GapOpen <= maxNarrowGap
}

// NarrowEligible exports narrowEligible: whether these parameters can run
// the narrow tier at all. The ipukernel SRAM model uses it to decide when
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
// within satGuard16 the runtime guard cannot fire. TierAuto admits narrow
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

// narrowOutcome turns res, the int32 Result of an m×n extension under p,
// into the narrow tier's outcome when the tier applies: the int16 attempt
// completes (Narrow, WorkBytes at narrowScoreBytes a cell) exactly when
// the Score stays within satGuard16, and is promoted otherwise.
func narrowOutcome(m, n int, p *Params, res *Result) {
	if !useNarrow(m, n, p) {
		return
	}
	if res.Score <= satGuard16 {
		res.Stats.Narrow = true
		res.Stats.WorkBytes = res.Stats.WorkBytes / scoreBytes * narrowScoreBytes
	} else {
		res.Stats.Promoted = true
	}
}
