package ipukernel

import "github.com/sram-align/xdropipu/internal/core"

// Tier returns Params.Tier, which selects nothing. Only the repo
// benchmark's layer trace (benchmark/trace.go's kernelExtender) calls it.
func (c Config) Tier() core.Tier { return c.Params.Tier }
