// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§5, §6), each regenerating the same
// rows/series the paper reports on the simulated platforms.
//
// Two scale knobs keep a full run within a test budget while preserving
// the comparative shapes the paper's conclusions rest on:
//
//   - Options.Scale divides every platform's parallel resources (IPU
//     tiles, CPU cores, GPU SMs) by the same factor, so cross-platform
//     ratios survive;
//   - Options.SizeFactor scales dataset sizes; defaults saturate the
//     scaled devices the way the paper's datasets saturate real ones.
//
// Every number is modeled: a runner's output is a pure function of
// (Scale, SizeFactor, Seed). Host wall-clock performance is measured by
// the benchmark/ module, never here.
package bench

import (
	"fmt"
	"io"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// Options configures a harness run.
type Options struct {
	// W receives the rendered tables.
	W io.Writer
	// Scale divides platform parallelism (default 8; 1 = full machines).
	Scale int
	// SizeFactor scales dataset sizes (default 1.0).
	SizeFactor float64
	// Seed drives all dataset generation.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.W == nil {
		o.W = io.Discard
	}
	if o.Scale <= 0 {
		o.Scale = 8
	}
	if o.SizeFactor <= 0 {
		o.SizeFactor = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 20230417 // the paper's arXiv date
	}
	return o
}

// n scales an integer dataset dimension.
func (o Options) n(base int) int {
	v := int(float64(base) * o.SizeFactor)
	if v < 1 {
		return 1
	}
	return v
}

// ipuModel returns the scaled IPU.
func (o Options) ipuModel() platform.IPUModel { return platform.GC200.Scaled(o.Scale) }

// bowModel returns the scaled BOW IPU.
func (o Options) bowModel() platform.IPUModel { return platform.BOW.Scaled(o.Scale) }

// cpuModel returns the scaled CPU node.
func (o Options) cpuModel() platform.CPUModel { return platform.EPYC7763.Scaled(o.Scale) }

// gpuModel returns the scaled GPU.
func (o Options) gpuModel() platform.GPUModel { return platform.A100.Scaled(o.Scale) }

// kernelConfig returns the fully optimised kernel configuration the
// paper's headline numbers use (all Table 1 optimisations on).
func kernelConfig(x, deltaB int) ipukernel.Config {
	return ipukernel.Config{
		Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, DeltaB: deltaB},
		LRSplit:          true,
		WorkStealing:     true,
		BusyWaitVariance: true,
		DualIssue:        true,
	}
}

// driverConfig returns a single-IPU driver setup on the scaled machine.
// The per-batch host overhead scales with the platform so it amortises
// the way full-size runs amortise it.
func (o Options) driverConfig(x, deltaB, ipus int) driver.Config {
	return driver.Config{
		IPUs:                 ipus,
		Model:                o.ipuModel(),
		Partition:            true,
		Kernel:               kernelConfig(x, deltaB),
		BatchOverheadSeconds: driver.DefaultBatchOverheadSeconds / float64(o.Scale),
	}
}

// Runner is one experiment entry point.
type Runner struct {
	// Name is the CLI key (e.g. "table1").
	Name string
	// Artifact names the paper artifact it regenerates.
	Artifact string
	// Run executes the experiment.
	Run func(Options) error
}

// Experiments lists every runner in presentation order.
func Experiments() []Runner {
	return []Runner{
		{"table1", "Table 1 — optimisation ablation", Table1},
		{"table2", "Table 2 — dataset statistics", Table2},
		{"fig1", "Fig. 1 — banded vs X-Drop search", Fig1},
		{"fig2", "Fig. 2 — search space vs X", Fig2},
		{"fig3", "Fig. 3 — memory footprint of the variants", Fig3},
		{"fig5", "Fig. 5 — GCUPS vs CPU and GPU", Fig5},
		{"fig6", "Fig. 6 — working band δw vs error rate", Fig6},
		{"fig7", "Fig. 7 — strong scaling over IPU count", Fig7},
		{"memory", "§6.1 — δw selection and memory savings", Memory},
		{"races", "§4.1.3 — eventual work stealing races", Races},
		{"partition", "§6.2 — batch reduction from partitioning", Partition},
		{"elba", "§6.3.1 — ELBA alignment phase", ELBA},
		{"pastis", "§6.3.2 — PASTIS alignment phase", PASTIS},
	}
}

// RunAll executes every experiment in order.
func RunAll(opt Options) error {
	opt = opt.withDefaults()
	for _, r := range Experiments() {
		fmt.Fprintf(opt.W, "=== %s: %s ===\n\n", r.Name, r.Artifact)
		if err := r.Run(opt); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	return nil
}

// ByName returns the runner with the given name.
func ByName(name string) (Runner, bool) {
	for _, r := range Experiments() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}
