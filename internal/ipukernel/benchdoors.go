package ipukernel

import (
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
)

// Run executes a batch on the device and accounts one BSP superstep,
// ungated: it is the zero Turn's Run. Only the repo benchmark's layer
// trace (benchmark/trace.go) and the package's tests call it; the driver
// runs every batch at a Turn.
func Run(dev *ipu.Device, b *Batch, cfg Config) (*BatchResult, error) {
	return Turn{}.Run(dev, b, cfg)
}

// Tier returns Params.Tier, which selects nothing. Only the repo
// benchmark's layer trace (benchmark/trace.go's kernelExtender) calls it.
func (c Config) Tier() core.Tier { return c.Params.Tier }
