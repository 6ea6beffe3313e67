package partition

import (
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// The Planner's stages, one call each, for a caller that times them one
// by one: DeriveSeqBudget, then BuildItems, then MakeBatchesFanout give
// driver.BuildBatches' batches. benchmark/trace.go times them as
// partition.derive_budget_s, partition.build_items_s and
// partition.make_batches_s.

// DeriveSeqBudget computes the per-partition sequence budget for a dataset
// under a kernel configuration (Planner.SeqBudget).
func DeriveSeqBudget(d *workload.Dataset, cfg ipukernel.Config, model platform.IPUModel) (int, error) {
	return NewPlanner(d, cfg, model).SeqBudget()
}

// BuildItems turns a dataset into schedulable items using the paper's
// greedy edge-list walk (§4.3): adjacent vertices join the open partition
// until the next vertex would exceed the sequence budget, then a new
// partition starts. It walks through a Planner of the zero kernel
// configuration, whose Charges it drops.
func BuildItems(d *workload.Dataset, opt Options) []Item {
	p := NewPlanner(d, ipukernel.Config{}, platform.IPUModel{})
	p.BuildItems(opt)
	return p.items
}

// MakeBatchesFanout distributes items, which hold disjoint comparisons of
// d as BuildItems makes them, across tiles into BSP batches (see batch for
// the placement rule, maxJobs and fanout). It folds each item's Charge
// from its comparisons, as the walk does for the Planner's items.
func MakeBatchesFanout(d *workload.Dataset, items []Item, tiles int, cfg ipukernel.Config, model platform.IPUModel, maxJobs int, fanout []int32) ([]*ipukernel.Batch, error) {
	arena, plan := d.Spine()
	refs := arena.Refs()
	charges := make([]ipukernel.Charge, len(items))
	for i := range items {
		for _, ci := range items[i].Cmps {
			charges[i] = charges[i].With(cfg.ExtensionCharge(plan.ExtensionLens(refs, ci)))
		}
	}
	return batch(plan, refs, items, charges, tiles, &cfg, model, maxJobs, fanout)
}
