// Package ipu models the Graphcore IPU as an execution substrate (§2.1):
// a grid of tiles, each with a hard local-SRAM budget and six temporally
// multiplexed hardware threads, running bulk-synchronous supersteps.
//
// The model executes nothing itself — codelets (internal/ipukernel) run
// the real algorithms in Go and charge per-thread instruction counts; the
// device converts them to time exactly the way the paper measures it:
// deterministic cycle counts divided by the clock (§5.1). SRAM limits are
// enforced, which is what makes the memory-restricted X-Drop algorithm
// necessary rather than cosmetic.
//
// A Device holds only its configuration: RunSuperstep checks a superstep
// against the enabled tiles and the SRAM budget and returns its modeled
// time, and remembers nothing. What ran is recorded once, in the
// driver's Summary, so any number of goroutines may share one Device.
package ipu

import (
	"fmt"

	"github.com/sram-align/xdropipu/internal/platform"
)

// Config selects the modeled hardware and how much of it to use.
type Config struct {
	// Model is the IPU generation (platform.GC200 or platform.BOW).
	Model platform.IPUModel
	// TilesEnabled restricts the tile count (ablation rows of Table 1);
	// zero enables all of them.
	TilesEnabled int
}

// syncSeconds is the modeled fixed BSP synchronisation cost per superstep.
const syncSeconds = 1.5e-6

// Device is one simulated IPU.
type Device struct {
	cfg Config
}

// New creates a device. A zero TilesEnabled uses every tile.
func New(cfg Config) *Device {
	if cfg.TilesEnabled <= 0 || cfg.TilesEnabled > cfg.Model.Tiles {
		cfg.TilesEnabled = cfg.Model.Tiles
	}
	return &Device{cfg: cfg}
}

// Model returns the hardware description.
func (d *Device) Model() platform.IPUModel { return d.cfg.Model }

// Tiles returns the enabled tile count.
func (d *Device) Tiles() int { return d.cfg.TilesEnabled }

// DataSRAM returns the per-tile byte budget available to codelet data.
func (d *Device) DataSRAM() int { return d.cfg.Model.DataSRAM() }

// Superstep describes one executed BSP compute phase.
type Superstep struct {
	// TileInstr is the per-tile maximum thread instruction count.
	TileInstr []int64
	// ExchangeBytes is the data moved over the on-chip exchange during
	// the following exchange phase (result gather).
	ExchangeBytes int64
	// SRAMUsed is the per-tile SRAM high-water mark, if known.
	SRAMUsed int
}

// RunSuperstep checks one BSP superstep against the device and returns
// its modeled duration. Per the BSP model the compute phase lasts as long
// as the slowest tile (§2.1.1: "If a single tile takes more time, all
// other tiles must wait").
func (d *Device) RunSuperstep(s Superstep) (float64, error) {
	if len(s.TileInstr) > d.cfg.TilesEnabled {
		return 0, fmt.Errorf("ipu: superstep uses %d tiles, device has %d enabled",
			len(s.TileInstr), d.cfg.TilesEnabled)
	}
	if s.SRAMUsed > d.cfg.Model.DataSRAM() {
		return 0, fmt.Errorf("ipu: superstep needs %d B of tile SRAM, budget is %d B",
			s.SRAMUsed, d.cfg.Model.DataSRAM())
	}
	var maxInstr int64
	for _, ti := range s.TileInstr {
		maxInstr = max(maxInstr, ti)
	}
	compute := d.cfg.Model.ThreadSeconds(maxInstr)
	exchange := float64(s.ExchangeBytes) / d.cfg.Model.ExchangeBytesPerSec
	return compute + exchange + syncSeconds, nil
}
