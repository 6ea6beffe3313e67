// Scaling: plan a many-to-many alignment workload once, then replay it on
// growing IPU fleets — the paper's NUMBER_IPUS experiment in miniature —
// with graph partitioning on and off.
package main

import (
	"fmt"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"

	"github.com/sram-align/xdropipu/internal/core"
)

func main() {
	d := synth.Reads(synth.ReadsSpec{
		Name: "demo", GenomeLen: 120_000, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2200,
		Errors: synth.UniformDNA(0.06), SeedLen: 17, MinOverlap: 250, Seed: 9,
	})
	fmt.Printf("workload: %d reads, %d comparisons\n", d.NumSeqs(), len(d.Comparisons))

	for _, part := range []bool{true, false} {
		cfg := driver.Config{
			IPUs:        1,
			Model:       platform.GC200,
			TilesPerIPU: 2,
			SeqBudget:   40 * 1024,
			Partition:   part,
			Kernel: ipukernel.Config{
				Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
				LRSplit:          true,
				WorkStealing:     true,
				BusyWaitVariance: true,
				DualIssue:        true,
			},
		}
		// The trick of §4.4: plan once, schedule at any fleet size.
		plan, err := driver.NewPlan(d, cfg)
		if err != nil {
			panic(err)
		}
		mode := "multi-comparison (graph partitioning)"
		if !part {
			mode = "single-comparison"
		}
		fmt.Printf("\n%s: %d batches\n", mode, plan.Batches())
		base := plan.Schedule(1).WallSeconds
		for _, n := range []int{1, 2, 4, 8, 16} {
			rep := plan.Schedule(n)
			fmt.Printf("  %2d IPUs: %8.3fms  (%.2f× vs 1 IPU, link busy %.0f%%)\n",
				n, rep.WallSeconds*1e3, base/rep.WallSeconds,
				100*rep.TransferSeconds/rep.WallSeconds/2)
		}
	}
}
