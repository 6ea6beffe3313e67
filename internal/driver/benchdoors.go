package driver

import "github.com/sram-align/xdropipu/internal/ipukernel"

// AssemblePlan merges executed batch results into a replayable Plan in
// one step: results are keyed by GlobalID and the batch-order fold does
// the rest, so the plan (and every Report scheduled from it) is identical
// for any execution interleaving. Callers that see batches land one at a
// time — NewPlanContext's workers, the engine's deliveries — use an
// Assembly directly and merge each batch as it lands. A plan assembles
// once: under dedup the report is filled in place. Outside tests, only
// the repo benchmark's layer trace (benchmark/trace.go) calls it.
func AssemblePlan(bp *BatchPlan, outs []*ipukernel.BatchResult) (*Plan, error) {
	a := bp.NewAssembly()
	for _, res := range outs {
		if res != nil { // fold names the batch
			if err := a.Merge(res); err != nil {
				return nil, err
			}
		}
	}
	return a.Fold(outs)
}
