// Package baselines implements the comparison systems of §5.1: the
// SeqAn-like vectorised CPU X-Drop, the ksw2-like affine-gap CPU aligner,
// the genometools-like scalar CPU aligner, and the LOGAN-like GPU X-Drop.
//
// Each baseline really executes its algorithm (via internal/core) — search
// spaces, scores and band dynamics are genuine — and converts the
// execution trace into modeled seconds with the calibrated platform
// models, mirroring how the paper measures each system (alignment-phase
// time only, §5.1).
package baselines

import (
	"runtime"
	"sync"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Result is one baseline's outcome on a dataset.
type Result struct {
	// Name identifies the baseline.
	Name string
	// Scores holds per-comparison total scores (left+seed+right).
	Scores []int
	// Alignments holds per-comparison coordinates (pipeline input).
	Alignments []workload.Alignment
	// Seconds is the modeled alignment time.
	Seconds float64
	// Cells is the number of DP cells the algorithm actually computed.
	Cells int64
	// TheoreticalCells is the GCUPS numerator.
	TheoreticalCells int64
	// MeanBand is the average computed antidiagonal width.
	MeanBand float64
	// Antidiagonals sums antidiagonal iterations.
	Antidiagonals int64
	// Chunks128 sums ceil(band/128) per antidiagonal (GPU cost input).
	Chunks128 int64
}

// GCUPS returns the paper's throughput metric for the result.
func (r *Result) GCUPS() float64 { return metrics.GCUPS(r.TheoreticalCells, r.Seconds) }

// trace aggregates extension statistics across a dataset run.
type trace struct {
	cells    int64
	theo     int64
	antidiag int64
	sumBand  int64
	chunks   int64
}

// runAll executes every comparison's two extensions under params, in
// parallel across host goroutines (results are deterministic; scheduling
// is not part of the model for CPU/GPU baselines).
func runAll(d *workload.Dataset, params core.Params) ([]int, []workload.Alignment, trace) {
	scores := make([]int, len(d.Comparisons))
	alns := make([]workload.Alignment, len(d.Comparisons))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(d.Comparisons) {
		workers = len(d.Comparisons)
	}
	if workers < 1 {
		workers = 1
	}
	traces := make([]trace, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws core.Workspace
			tr := &traces[w]
			for ci := w; ci < len(d.Comparisons); ci += workers {
				c := d.Comparisons[ci]
				h, v := d.Seq(c.H), d.Seq(c.V)
				seed := core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}
				res, err := ws.ExtendSeed(h, v, seed, params)
				if err != nil {
					// Validated datasets cannot fail; match the
					// kernel by scoring the comparison zero.
					continue
				}
				scores[ci] = res.Score
				alns[ci] = workload.Alignment{
					Score: res.Score,
					BegH:  res.BegH, BegV: res.BegV,
					EndH: res.EndH, EndV: res.EndV,
				}
				tr.cells += res.Stats.Cells
				tr.antidiag += int64(res.Stats.Antidiagonals)
				tr.sumBand += res.Stats.SumComputedBand
				tr.chunks += res.Stats.Chunks128
				tr.theo += d.Complexity(c)
			}
		}(w)
	}
	wg.Wait()
	var total trace
	for _, tr := range traces {
		total.cells += tr.cells
		total.theo += tr.theo
		total.antidiag += tr.antidiag
		total.sumBand += tr.sumBand
		total.chunks += tr.chunks
	}
	return scores, alns, total
}

func (t trace) meanBand() float64 {
	if t.antidiag == 0 {
		return 0
	}
	return float64(t.sumBand) / float64(t.antidiag)
}

func resultFrom(name string, scores []int, alns []workload.Alignment, t trace, seconds float64) *Result {
	return &Result{
		Name:             name,
		Scores:           scores,
		Alignments:       alns,
		Seconds:          seconds,
		Cells:            t.cells,
		TheoreticalCells: t.theo,
		MeanBand:         t.meanBand(),
		Antidiagonals:    t.antidiag,
		Chunks128:        t.chunks,
	}
}

// cpuVecSeconds models an OpenMP + SIMD kernel: cells spread over all
// cores at a band-dependent vector efficiency, plus per-alignment
// dispatch overhead (§5.1's benchmark runner).
func cpuVecSeconds(cpu platform.CPUModel, t trace, alignments int, affine bool) float64 {
	cpc := cpu.VecCellsPerCycle(t.meanBand())
	if affine {
		cpc /= cpu.AffineCellFactor
	}
	if cpc <= 0 {
		return 0
	}
	compute := float64(t.cells) / (float64(cpu.Cores) * cpu.ClockHz * cpc)
	return compute + float64(alignments)*cpu.PerAlignmentSeconds/float64(cpu.Cores)
}

// SeqAnParams returns the scoring the paper's DNA experiments use with
// SeqAn-class tools: +1/−1 with linear gap −1.
func SeqAnParams(x int) core.Params {
	return core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, Algo: core.AlgoStandard3}
}

// SeqAn runs the SeqAn-like baseline: Zhang's standard X-Drop search
// space on a vectorised multicore CPU (§5.1; the strongest CPU
// competitor in Fig. 5).
func SeqAn(d *workload.Dataset, x int, cpu platform.CPUModel) *Result {
	params := SeqAnParams(x)
	if d.Protein {
		params.Scorer = scoring.Blosum62
		params.Gap = -2
	}
	scores, alns, t := runAll(d, params)
	return resultFrom("seqan", scores, alns, t, cpuVecSeconds(cpu, t, len(d.Comparisons), false))
}

// Ksw2 runs the ksw2-like baseline: affine-gap X-Drop with minimap2-style
// penalties (match 2, mismatch −4, gap open −4, gap extend −1). The drop
// threshold scales by the mismatch ratio (4×) so ksw2 tolerates the same
// number of mismatches as the +1/−1 tools at a given X — on that scale its
// weak long-gap extension penalty genuinely enlarges the live band, the
// §6.2 explanation for ksw2 trailing SeqAn ("ksw2 penalizes long gaps
// less, resulting in a larger search space").
func Ksw2(d *workload.Dataset, x int, cpu platform.CPUModel) *Result {
	params := core.Params{
		Scorer:  scoring.NewSimple(2, -4),
		Gap:     -1,
		GapOpen: -4,
		X:       4 * x,
		Algo:    core.AlgoAffine,
	}
	scores, alns, t := runAll(d, params)
	return resultFrom("ksw2", scores, alns, t, cpuVecSeconds(cpu, t, len(d.Comparisons), true))
}

// GenomeTools runs the genometools-like baseline: the standard X-Drop
// search space on a scalar CPU kernel.
func GenomeTools(d *workload.Dataset, x int, cpu platform.CPUModel) *Result {
	params := SeqAnParams(x)
	if d.Protein {
		params.Scorer = scoring.Blosum62
		params.Gap = -2
	}
	scores, alns, t := runAll(d, params)
	compute := float64(t.cells) / (float64(cpu.Cores) * cpu.ClockHz * cpu.ScalarCellsPerCycle)
	secs := compute + float64(len(d.Comparisons))*cpu.PerAlignmentSeconds/float64(cpu.Cores)
	return resultFrom("genometools", scores, alns, t, secs)
}

// Logan runs the LOGAN-like GPU baseline: the same standard X-Drop search
// space mapped SIMT-style — one alignment per thread block, each
// antidiagonal processed in lockstep chunks of BlockLanes threads with a
// block barrier per antidiagonal. Narrow bands leave most lanes idle and
// pay the barrier anyway, which is why LOGAN loses badly at small X and
// recovers at large X (Fig. 5). LOGAN supports DNA only (§2.4).
func Logan(d *workload.Dataset, x int, gpu platform.GPUModel, numGPUs int) *Result {
	if numGPUs <= 0 {
		numGPUs = 1
	}
	scores, alns, t := runAll(d, SeqAnParams(x))
	cycles := float64(t.chunks)*gpu.CellCycles + float64(t.antidiag)*gpu.SyncCycles
	slots := float64(gpu.BlockSlots() * numGPUs)
	secs := cycles/(slots*gpu.ClockHz) + gpu.KernelLaunchSeconds
	return resultFrom("logan", scores, alns, t, secs)
}
