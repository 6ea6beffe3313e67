// Package core implements the paper's primary contribution: the X-Drop
// semi-global alignment algorithm family, including the memory-restricted
// two-antidiagonal variant (Algorithm 1) designed for SRAM-based processors.
//
// Three score-compatible variants are provided:
//
//   - Standard3: Zhang's three-antidiagonal formulation (3δ memory), the
//     search space used by SeqAn and LOGAN.
//   - Restricted2: the paper's contribution — two antidiagonals of bounded
//     length δb (2δb memory), with the working window re-aligned to the
//     active best-scoring region each iteration (§3, Algorithm 1).
//   - Affine: Gotoh affine-gap X-Drop with ksw2-style penalties, backing the
//     ksw2 baseline (§6.2).
//
// All variants share identical recurrence and pruning semantics: a cell
// whose score falls below T−X, where T is the best score seen on previous
// antidiagonals, is removed from the search space (set to −∞).
//
// The variants are served by three antidiagonal sweeps: linearSweep
// (linear.go — Restricted2's in-place two-buffer walk, and Standard3 as
// the same body writing to a third buffer) and affineSweep (affine.go)
// score only and are generic over the score width (int32, or int16 for
// the narrow tier of tier.go); fusedLinear (fused.go) scores the linear
// variants and records per-cell directions for traceback, whether as the
// single fused pass or as the second pass after a score sweep. Affine is
// score-only. Each sweep has one inner loop: Workspace.operands lays h
// and v out in sweep order once per extension, so no sweep knows a view's
// direction. The linear int32 sweeps additionally have AVX2 bodies on
// amd64 (row_amd64.s, eight cells per instruction): one resident assembly
// body (sweepLinearVec) runs the whole antidiagonal loop of an extension,
// with two row kinds — the score sweep's rows and the recording sweep's,
// which also pack their direction codes into the tracer. Both are
// bit-identical to the Go loops they are tested against; RowISA reports
// which this process runs. The X-Drop they are all held to is
// internal/oracle, which shares no code with this package.
package core

import (
	"fmt"
	"math"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// NegInf is the pruned-cell sentinel. It is far enough from the integer
// minimum that adding similarity scores or gap penalties cannot wrap.
const NegInf = math.MinInt / 4

// View is the op(·) index transformation of §4.1.1: it presents a byte
// slice either forwards or backwards, so left seed extensions can run on
// contiguous memory in reverse. (The host sweeps stage a reversed copy of
// one operand per extension — Workspace.operands — which the device
// model does not charge: there op(·) stays an index transformation.)
type View struct {
	data []byte
	rev  bool
}

// NewView wraps b for forward access.
func NewView(b []byte) View { return View{data: b} }

// NewReversedView wraps b for backward access: At(0) is the last byte.
func NewReversedView(b []byte) View { return View{data: b, rev: true} }

// Len returns the number of accessible symbols.
func (v View) Len() int { return len(v.data) }

// At returns the i-th symbol under the view's direction.
func (v View) At(i int) byte {
	if v.rev {
		return v.data[len(v.data)-1-i]
	}
	return v.data[i]
}

// Reversed reports whether the view reads backwards.
func (v View) Reversed() bool { return v.rev }

// Bytes materialises the view (test helper).
func (v View) Bytes() []byte {
	out := make([]byte, len(v.data))
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// Algo selects an X-Drop implementation.
type Algo uint8

const (
	// AlgoRestricted2 is the paper's memory-restricted algorithm.
	AlgoRestricted2 Algo = iota
	// AlgoStandard3 is Zhang's three-antidiagonal algorithm.
	AlgoStandard3
	// AlgoAffine is the Gotoh affine-gap variant (ksw2 baseline). It
	// keeps the value 3: kernel fingerprints hash Algo.
	AlgoAffine Algo = 3
)

// String names the algorithm for reports.
func (a Algo) String() string {
	switch a {
	case AlgoRestricted2:
		return "restricted2"
	case AlgoStandard3:
		return "standard3"
	case AlgoAffine:
		return "affine"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// Params configures an X-Drop extension.
type Params struct {
	// Scorer provides symbol-pair similarity (Sim of §2.2).
	Scorer scoring.Scorer
	// Gap is the linear gap penalty; it must be negative.
	Gap int
	// X is the drop threshold (≥ 0): cells scoring below best−X are pruned.
	X int
	// DeltaB bounds the working antidiagonal length of Restricted2
	// (δb of §3). Zero means "unbounded", i.e. δ = min(m,n)+1.
	DeltaB int
	// GapOpen is the extra affine gap-open penalty (negative); only the
	// Affine variant reads it.
	GapOpen int
	// Algo selects the implementation used by Align.
	Algo Algo
	// Tier selects the kernel score width (see tier.go). The zero value
	// is TierWide; TierNarrow/TierAuto opt in to the int16 kernels with
	// transparent overflow promotion back to int32.
	Tier Tier
}

// Validate reports a descriptive error for out-of-range parameters.
func (p *Params) Validate() error {
	if p.Scorer == nil {
		return fmt.Errorf("core: Params.Scorer is nil")
	}
	if p.Gap >= 0 {
		return fmt.Errorf("core: gap penalty must be negative, got %d", p.Gap)
	}
	if p.X < 0 {
		return fmt.Errorf("core: X must be non-negative, got %d", p.X)
	}
	if p.DeltaB < 0 {
		return fmt.Errorf("core: DeltaB must be non-negative, got %d", p.DeltaB)
	}
	if p.GapOpen > 0 {
		return fmt.Errorf("core: GapOpen must be non-positive, got %d", p.GapOpen)
	}
	if p.Algo != AlgoRestricted2 && p.Algo != AlgoStandard3 && p.Algo != AlgoAffine {
		return fmt.Errorf("core: unknown algorithm %v", p.Algo)
	}
	if p.Tier > TierAuto {
		return fmt.Errorf("core: unknown kernel tier %d", p.Tier)
	}
	return nil
}

// Stats records the execution trace of one extension. Platform cost models
// (internal/platform) consume these to derive modeled run times, and the
// δw experiments (Fig. 6, §6.1) read MaxLiveBand.
type Stats struct {
	// Antidiagonals is the number of DP antidiagonals processed.
	Antidiagonals int
	// Cells is the number of DP cells actually computed.
	Cells int64
	// MaxLiveBand is δw: the maximum live-window width max|U−L|+1.
	MaxLiveBand int
	// SumComputedBand accumulates the computed-window width per
	// antidiagonal (equals Cells; kept separate for clarity in models).
	SumComputedBand int64
	// Chunks32 sums ceil(width/32) over antidiagonals (GPU warp model).
	Chunks32 int64
	// Chunks128 sums ceil(width/128) over antidiagonals (GPU block model).
	Chunks128 int64
	// Clamped reports whether Restricted2 had to shrink the live window
	// to respect DeltaB (result may then be a lower bound on the score).
	Clamped bool
	// TheoreticalCells is m·n, the denominator-free GCUPS numerator
	// (§5.1 defines GCUPS over the full matrix size).
	TheoreticalCells int64
	// WorkBytes is the modeled device memory footprint of the variant's
	// working buffers at the tier's score width: 4-byte scores on the
	// wide tier (3δ·4 for Standard3, 2δb·4 for Restricted2; §3, Fig. 3),
	// 2-byte scores on the narrow tier.
	WorkBytes int
	// Narrow reports that the extension completed on the int16 kernel
	// tier. Promoted reports that a narrow attempt saturated and the
	// extension transparently re-ran on the int32 tier (its Stats are
	// those of the wide re-run). Both false means a plain wide run.
	Narrow bool
	// Promoted is set with Narrow == false: the wide re-run produced the
	// result. See tier.go for the saturation guard.
	Promoted bool
}

// add merges another trace (used when combining left+right extensions).
func (s *Stats) add(o Stats) {
	s.Antidiagonals += o.Antidiagonals
	s.Cells += o.Cells
	s.SumComputedBand += o.SumComputedBand
	s.Chunks32 += o.Chunks32
	s.Chunks128 += o.Chunks128
	if o.MaxLiveBand > s.MaxLiveBand {
		s.MaxLiveBand = o.MaxLiveBand
	}
	s.Clamped = s.Clamped || o.Clamped
	s.TheoreticalCells += o.TheoreticalCells
	if o.WorkBytes > s.WorkBytes {
		s.WorkBytes = o.WorkBytes
	}
	// A merged trace is "narrow" only if every constituent ran narrow,
	// and "promoted" if any constituent promoted.
	s.Narrow = s.Narrow && o.Narrow
	s.Promoted = s.Promoted || o.Promoted
}

// Result is the outcome of one semi-global X-Drop extension.
type Result struct {
	// Score is the best alignment score found (T in Algorithm 1).
	Score int
	// EndH and EndV are the number of symbols of H and V consumed by the
	// best-scoring cell (the extension end point).
	EndH, EndV int
	// Stats is the execution trace.
	Stats Stats
}

// Align runs the extension selected by p.Algo (and p.Tier) on views h
// and v.
func Align(h, v View, p Params) Result {
	var w Workspace
	var r Result
	w.align(h, v, &p, &r)
	return r
}
