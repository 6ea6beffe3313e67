// Package backend abstracts the alignment-phase executor the pipelines
// call into: the simulated IPU system (our contribution), the SeqAn-class
// CPU node, or the LOGAN-class GPU node — mirroring how ELBA selects
// between SeqAn and LOGAN and how this paper's library slots in as a third
// option (§5.3).
package backend

import (
	"context"
	"fmt"

	"github.com/sram-align/xdropipu/internal/baselines"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Outcome is an alignment-phase result.
type Outcome struct {
	// Alignments holds one entry per comparison, in dataset order.
	Alignments []workload.Alignment
	// Seconds is the modeled alignment-phase time (the §6.3 measure:
	// end-to-end for the IPU including host transfers; compute for the
	// CPU; kernel time for the GPU).
	Seconds float64
	// Name identifies the executor.
	Name string
}

// Backend executes a dataset's planned comparisons.
type Backend interface {
	// Align runs all comparisons and reports alignments plus time.
	Align(d *workload.Dataset) (*Outcome, error)
	// Name identifies the executor for reports.
	Name() string
}

// IPU runs alignments on the simulated multi-IPU system: through a shared
// engine when Eng is set, through one driver.Run call otherwise.
type IPU struct {
	// Cfg is the driver configuration (devices, kernel, partitioning).
	// Ignored when Eng is set — a shared engine's fleet wins.
	Cfg driver.Config
	// Eng optionally routes the phase through a long-lived shared Engine,
	// so pipelines running concurrently share one device fleet instead of
	// each modeling their own. Nil means one driver.Run per Align.
	Eng *engine.Engine
}

// config returns the fleet configuration the backend actually runs.
func (b *IPU) config() driver.Config {
	if b.Eng != nil {
		return b.Eng.Config()
	}
	return b.Cfg
}

// Name implements Backend.
func (b *IPU) Name() string {
	cfg := b.config()
	return fmt.Sprintf("ipu×%d(%s)", max(1, cfg.IPUs), cfg.Model.Name)
}

// Align implements Backend.
func (b *IPU) Align(d *workload.Dataset) (*Outcome, error) {
	var rep *driver.Report
	var err error
	if b.Eng != nil {
		var job *engine.Job
		job, err = b.Eng.Submit(context.Background(), d)
		if err != nil {
			return nil, err
		}
		rep, err = job.Wait(context.Background())
	} else {
		rep, err = driver.Run(d, b.Cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Alignments: make([]workload.Alignment, len(rep.Results)),
		Seconds:    rep.WallSeconds,
		Name:       b.Name(),
	}
	for i, r := range rep.Results {
		out.Alignments[i] = workload.Alignment{
			Score: r.Score,
			BegH:  r.BegH, BegV: r.BegV,
			EndH: r.EndH, EndV: r.EndV,
			Cigar:  r.Cigar,  // non-empty when the fleet ran with traceback
			Failed: r.Failed, // degraded placeholder under DegradePartial
		}
	}
	return out, nil
}

// CPUImpl selects the CPU aligner flavour.
type CPUImpl string

// CPU aligner flavours.
const (
	CPUSeqAn       CPUImpl = "seqan"
	CPUKsw2        CPUImpl = "ksw2"
	CPUGenomeTools CPUImpl = "genometools"
)

// CPU runs alignments with a modeled multicore CPU baseline.
type CPU struct {
	// Model is the CPU node (platform.EPYC7763 or a scaled variant).
	Model platform.CPUModel
	// X is the drop threshold.
	X int
	// Impl selects the aligner (default SeqAn).
	Impl CPUImpl
}

// Name implements Backend.
func (b *CPU) Name() string {
	impl := b.Impl
	if impl == "" {
		impl = CPUSeqAn
	}
	return fmt.Sprintf("cpu-%s(%s)", impl, b.Model.Name)
}

// Align implements Backend.
func (b *CPU) Align(d *workload.Dataset) (*Outcome, error) {
	var res *baselines.Result
	switch b.Impl {
	case CPUKsw2:
		res = baselines.Ksw2(d, b.X, b.Model)
	case CPUGenomeTools:
		res = baselines.GenomeTools(d, b.X, b.Model)
	case "", CPUSeqAn:
		res = baselines.SeqAn(d, b.X, b.Model)
	default:
		return nil, fmt.Errorf("backend: unknown CPU impl %q", b.Impl)
	}
	return &Outcome{Alignments: res.Alignments, Seconds: res.Seconds, Name: b.Name()}, nil
}

// GPU runs alignments with the LOGAN-like GPU model.
type GPU struct {
	// Model is the GPU part.
	Model platform.GPUModel
	// GPUs is the device count.
	GPUs int
	// X is the drop threshold.
	X int
}

// Name implements Backend.
func (b *GPU) Name() string {
	return fmt.Sprintf("gpu-logan×%d(%s)", max(1, b.GPUs), b.Model.Name)
}

// Align implements Backend.
func (b *GPU) Align(d *workload.Dataset) (*Outcome, error) {
	if d.Protein {
		return nil, fmt.Errorf("backend: LOGAN does not support protein alignment (§2.4)")
	}
	res := baselines.Logan(d, b.X, b.Model, b.GPUs)
	return &Outcome{Alignments: res.Alignments, Seconds: res.Seconds, Name: b.Name()}, nil
}
