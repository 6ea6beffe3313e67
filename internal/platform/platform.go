// Package platform holds the machine models and calibrated cost constants
// used to convert execution traces of the real algorithms into modeled run
// times. No IPU, A100 or EPYC testbed exists in a pure-Go reproduction, so
// — per the substitution rule — timing is modeled while computation is
// real. The paper itself derives IPU time from deterministic cycle counts
// (t = cycles/f, §5.1), so a cycle model is faithful to its methodology.
//
// Calibration: with the defaults below the
// models reproduce the paper's headline comparisons — ≈100k GCUPS for one
// IPU on C. elegans at X=5, ≈2× over the SeqAn CPU model, ≈10× over the
// LOGAN GPU model, with both ratios shrinking at X=20 as the paper reports.
package platform

// IPUModel describes one Graphcore IPU generation (§2.1.1).
type IPUModel struct {
	// Name is the marketing name (GC200, BOW).
	Name string
	// Tiles is the number of independent cores with local SRAM.
	Tiles int
	// ThreadsPerTile is the hardware thread count (temporal
	// multithreading, fixed six-slot rotation).
	ThreadsPerTile int
	// ClockHz is the tile clock frequency.
	ClockHz float64
	// SRAMPerTile is the local memory per tile in bytes (624 KB).
	SRAMPerTile int
	// CodeReserve is SRAM set aside for code, stack and runtime per
	// tile; the batcher may not fill it with data.
	CodeReserve int
	// ExchangeBytesPerSec is the aggregate on-chip exchange bandwidth.
	ExchangeBytesPerSec float64
	// HostLinkBytesPerSec is the host↔IPU-system link (100 Gb/s
	// Ethernet, shared by every IPU attached to the host; §2.1.1).
	HostLinkBytesPerSec float64
	// ThreadSlotCycles is the instruction-slot rotation length: each
	// thread retires one instruction bundle every ThreadSlotCycles
	// device cycles (six on both generations).
	ThreadSlotCycles int
}

// GC200 is the Mk2 IPU used on the ex3 system (§5).
var GC200 = IPUModel{
	Name:                "GC200",
	Tiles:               1472,
	ThreadsPerTile:      6,
	ClockHz:             1.33e9,
	SRAMPerTile:         624 * 1024,
	CodeReserve:         72 * 1024,
	ExchangeBytesPerSec: 7.83e12,
	HostLinkBytesPerSec: 100e9 / 8,
	ThreadSlotCycles:    6,
}

// BOW is the Bow IPU (same layout, higher clock) used for the real-world
// pipeline runs (§5).
var BOW = IPUModel{
	Name:                "BOW",
	Tiles:               1472,
	ThreadsPerTile:      6,
	ClockHz:             1.85e9,
	SRAMPerTile:         624 * 1024,
	CodeReserve:         72 * 1024,
	ExchangeBytesPerSec: 10.9e12,
	HostLinkBytesPerSec: 100e9 / 8,
	ThreadSlotCycles:    6,
}

// DataSRAM returns the per-tile SRAM available to sequences, comparison
// tuples, work buffers and outputs.
func (m IPUModel) DataSRAM() int { return m.SRAMPerTile - m.CodeReserve }

// ThreadSeconds converts a per-thread instruction count into seconds: one
// instruction bundle retires per slot rotation.
func (m IPUModel) ThreadSeconds(instr int64) float64 {
	return float64(instr) * float64(m.ThreadSlotCycles) / m.ClockHz
}

// KernelCost parameterises the X-Drop codelet in thread-instruction
// bundles. The defaults are calibrated so one GC200 tile sustains
// clock/InstrPerCell cell updates per second with all six threads busy,
// which lands the full device at the paper's GCUPS scale (§6.2).
type KernelCost struct {
	// InstrPerCell is the bundle count per DP cell without dual issue.
	InstrPerCell float64
	// DualIssueSpeedup divides InstrPerCell when the VLIW float/int
	// pipelines are co-issued (§4.1.4 measures 1.30–1.35×).
	DualIssueSpeedup float64
	// InstrPerIteration is the per-antidiagonal loop overhead (window
	// bookkeeping, bounds update).
	InstrPerIteration float64
	// InstrPerAlignment is the per-extension setup/teardown cost.
	InstrPerAlignment float64
	// StealInstr is the cost of one work-steal attempt (global value
	// swap plus branch; §4.1.3).
	StealInstr float64
}

// DefaultKernelCost is the calibrated codelet cost model.
var DefaultKernelCost = KernelCost{
	InstrPerCell:      4.5,
	DualIssueSpeedup:  1.3,
	InstrPerIteration: 10,
	InstrPerAlignment: 260,
	StealInstr:        48,
}

// Scaled returns a proportionally smaller machine: parallel resources
// (tiles) divided by s with per-tile behaviour unchanged. Experiments use
// matched scaling across IPU/CPU/GPU so comparative ratios survive while
// datasets small enough for a Go test run still saturate every device.
func (m IPUModel) Scaled(s int) IPUModel {
	if s <= 1 {
		return m
	}
	out := m
	out.Name = m.Name + "/" + itoa(s)
	out.Tiles = ceilDiv(m.Tiles, s)
	out.ExchangeBytesPerSec = m.ExchangeBytesPerSec / float64(s)
	out.HostLinkBytesPerSec = m.HostLinkBytesPerSec / float64(s)
	return out
}

// Scaled divides the core count by s (minimum 1).
func (c CPUModel) Scaled(s int) CPUModel {
	if s <= 1 {
		return c
	}
	out := c
	out.Name = c.Name + "/" + itoa(s)
	out.Cores = ceilDiv(c.Cores, s)
	return out
}

// Scaled divides the SM count by s (minimum 1).
func (g GPUModel) Scaled(s int) GPUModel {
	if s <= 1 {
		return g
	}
	out := g
	out.Name = g.Name + "/" + itoa(s)
	out.SMs = ceilDiv(g.SMs, s)
	return out
}

func ceilDiv(a, b int) int {
	n := (a + b - 1) / b
	if n < 1 {
		return 1
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// CPUModel describes a multicore CPU node with SIMD X-Drop kernels.
type CPUModel struct {
	// Name identifies the part.
	Name string
	// Cores is the physical core count used by the OpenMP-style runner.
	Cores int
	// ClockHz is the sustained all-core clock.
	ClockHz float64
	// VecPeakCellsPerCycle is the per-core DP-cell throughput at
	// saturating band width for the vectorised (SeqAn/ksw2-class)
	// kernels.
	VecPeakCellsPerCycle float64
	// VecHalfBand is the live-band width at which vector efficiency
	// reaches half of peak: narrow X-Drop bands underfill AVX2 vectors,
	// which is why the CPU closes the gap as X grows (Fig. 5).
	VecHalfBand float64
	// ScalarCellsPerCycle is per-core throughput for scalar kernels
	// (the genometools-class baseline).
	ScalarCellsPerCycle float64
	// AffineCellFactor multiplies per-cell cost for affine-gap kernels
	// (three DP channels per cell; the ksw2 baseline).
	AffineCellFactor float64
	// PerAlignmentSeconds is scheduling/dispatch overhead per alignment
	// across the OpenMP pool.
	PerAlignmentSeconds float64
}

// EPYC7763 models the Perlmutter CPU node of §5 (64 cores, AVX2).
var EPYC7763 = CPUModel{
	Name:                 "EPYC-7763",
	Cores:                64,
	ClockHz:              2.45e9,
	VecPeakCellsPerCycle: 2.2,
	VecHalfBand:          10,
	ScalarCellsPerCycle:  0.35,
	AffineCellFactor:     1.8,
	PerAlignmentSeconds:  2.0e-7,
}

// VecCellsPerCycle returns the band-dependent vector throughput per core.
func (c CPUModel) VecCellsPerCycle(meanBand float64) float64 {
	if meanBand <= 0 {
		return 0
	}
	return c.VecPeakCellsPerCycle * meanBand / (meanBand + c.VecHalfBand)
}

// GPUModel describes a CUDA GPU running a LOGAN-style X-Drop kernel: one
// alignment per thread block, the live antidiagonal processed in lockstep
// chunks of 128 threads (core's Stats.Chunks128) with a block barrier per
// antidiagonal.
type GPUModel struct {
	// Name identifies the part.
	Name string
	// SMs is the streaming-multiprocessor count.
	SMs int
	// ClockHz is the SM clock.
	ClockHz float64
	// BlocksPerSM is the number of alignment blocks resident per SM
	// (shared-memory bound for 3δ antidiagonal buffers).
	BlocksPerSM int
	// CellCycles is the cycle cost of one lockstep chunk.
	CellCycles float64
	// SyncCycles is the per-antidiagonal block-barrier cost.
	SyncCycles float64
	// KernelLaunchSeconds is per-batch launch overhead.
	KernelLaunchSeconds float64
}

// A100 models the Perlmutter GPU of §5.
var A100 = GPUModel{
	Name:                "A100",
	SMs:                 108,
	ClockHz:             1.41e9,
	BlocksPerSM:         4,
	CellCycles:          4,
	SyncCycles:          100,
	KernelLaunchSeconds: 20e-6,
}

// BlockSlots is the number of alignments resident on the device at once.
func (g GPUModel) BlockSlots() int { return g.SMs * g.BlocksPerSM }
