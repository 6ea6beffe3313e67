package wire

import "github.com/sram-align/xdropipu/internal/ipukernel"

// FromAlignOut converts one kernel result to its wire form.
// benchmark/trace.go's wire.encode_results replica calls it.
func FromAlignOut(o ipukernel.AlignOut) Result {
	return Result{
		GlobalID: o.GlobalID, Score: o.Score,
		LeftScore: o.LeftScore, RightScore: o.RightScore,
		BegH: o.BegH, BegV: o.BegV, EndH: o.EndH, EndV: o.EndV,
		Cells: o.Cells, Antidiagonals: o.Antidiagonals,
		MaxLiveBand: o.MaxLiveBand, Clamped: o.Clamped, Failed: o.Failed,
		Cigar: string(o.Cigar), TraceBytes: o.TraceBytes,
	}
}
