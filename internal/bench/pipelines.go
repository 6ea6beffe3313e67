package bench

import (
	"math/rand"

	"github.com/sram-align/xdropipu/internal/backend"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/elba"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/pastis"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// ELBA reproduces the §6.3.1 comparison: the ELBA alignment phase run on
// the IPU system (1→8 devices), one CPU node and a 4-GPU node, on
// synthetic E. coli-like reads, at X=15 and k-mer length 31 — plus the
// assembly outcome as a sanity check that every backend produces the same
// contigs.
func ELBA(opt Options) error {
	opt = opt.withDefaults()
	// Pipelines are compared at a deeper uniform platform scale so the
	// scaled workload saturates every device the way the paper's 568 k
	// comparisons saturate a full IPU (≈386 jobs per tile); an
	// undersubscribed BSP device pays makespan raggedness no real run
	// pays.
	opt.Scale *= 8
	rng := rand.New(rand.NewSource(opt.Seed + 31))
	genomeLen := opt.n(700_000)
	genome := synth.RandDNA(rng, genomeLen)
	prof := synth.HiFiDNA()
	var reads [][]byte
	// Tiled reads with jitter: guaranteed coverage, realistic overlaps.
	readLen, stride := 2600, 900
	for off := 0; off+readLen <= genomeLen; off += stride + rng.Intn(300) {
		reads = append(reads, prof.Apply(rng, genome[off:off+readLen]))
	}

	x := 15
	tab := metrics.NewTable("§6.3.1 — ELBA alignment phase (E. coli-like, X=15, k=31)",
		"backend", "align time", "speedup vs CPU", "comparisons", "contigs", "N50")
	type run struct {
		name string
		bk   backend.Backend
	}
	bow := opt.bowModel()
	kernel := kernelConfig(x, 512)
	runs := []run{
		{"CPU 1 node (seqan)", &backend.CPU{Model: opt.cpuModel(), X: x}},
		{"GPU ×4 (logan)", &backend.GPU{Model: opt.gpuModel(), GPUs: 4, X: x}},
	}
	for _, n := range []int{1, 2, 4, 8} {
		cfg := opt.driverConfig(x, 512, n)
		cfg.Model = bow
		cfg.Kernel = kernel
		cfg.TilesPerIPU = bow.Tiles
		// Keep the batch queue deep enough for eight devices.
		cfg.MaxBatchJobs = 40
		runs = append(runs, run{
			name: metricsName("IPU", n),
			bk:   &backend.IPU{Cfg: cfg},
		})
	}

	var cpuTime float64
	var firstContigs [][]byte
	for i, r := range runs {
		res, err := elba.Assemble(reads, elba.Config{K: 31, Backend: r.bk})
		if err != nil {
			return err
		}
		if i == 0 {
			cpuTime = res.AlignSeconds
			firstContigs = res.Contigs
		}
		speed := "-"
		if i > 0 && res.AlignSeconds > 0 {
			speed = metrics.Ratio(cpuTime / res.AlignSeconds)
		}
		tab.AddRow(r.name, metrics.Seconds(res.AlignSeconds), speed,
			res.OverlapStats.Comparisons, len(res.Contigs), elba.N50(res.Contigs))
		if len(res.Contigs) != len(firstContigs) {
			tab.AddNote("WARNING: %s assembled %d contigs, CPU %d", r.name, len(res.Contigs), len(firstContigs))
		}
	}
	tab.AddNote("paper (E. coli): CPU 11.61s, GPU×4 52.14s, IPU 7.4s→2.2s on 1→8 devices")
	tab.Render(opt.W)
	return nil
}

func metricsName(base string, n int) string {
	if n == 1 {
		return base + " ×1"
	}
	return base + " ×" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// PASTIS reproduces the §6.3.2 comparison: the PASTIS alignment phase
// (X=49, gap −2, BLOSUM62, k=6, two seeds per pair) on CPU versus IPU —
// the paper measures 44.9 s vs 9.6 s (4.7×) on its 500 k-protein subset.
func PASTIS(opt Options) error {
	opt = opt.withDefaults()
	// Deeper uniform platform scale, as in the ELBA experiment.
	opt.Scale *= 8
	d, _ := synth.ProteinFamilies(synth.ProteinFamiliesSpec{
		Families:         opt.n(260),
		MembersPerFamily: 4,
		MeanLen:          320,
		MutRate:          0.18,
		Seed:             opt.Seed + 32,
	})
	arena, _ := d.Spine()
	seqs := arena.SeqViews()

	x := 49
	cpuBk := &backend.CPU{Model: opt.cpuModel(), X: x}
	ipuCfg := opt.driverConfig(x, 512, 1)
	ipuCfg.Model = opt.bowModel()
	ipuCfg.Kernel.Params = core.Params{Scorer: scoring.Blosum62, Gap: -2, X: x, DeltaB: 512}
	ipuBk := &backend.IPU{Cfg: ipuCfg}

	tab := metrics.NewTable("§6.3.2 — PASTIS alignment phase (X=49, BLOSUM62, k=6)",
		"backend", "align time", "speedup", "candidate pairs", "homolog pairs", "families>1")
	var cpuTime float64
	for i, bk := range []backend.Backend{cpuBk, ipuBk} {
		res, err := pastis.Search(seqs, pastis.Config{Backend: bk})
		if err != nil {
			return err
		}
		if i == 0 {
			cpuTime = res.AlignSeconds
		}
		speed := "-"
		if i > 0 && res.AlignSeconds > 0 {
			speed = metrics.Ratio(cpuTime / res.AlignSeconds)
		}
		fams := 0
		for _, f := range res.Families {
			if len(f) > 1 {
				fams++
			}
		}
		tab.AddRow(bk.Name(), metrics.Seconds(res.AlignSeconds), speed,
			res.OverlapStats.Comparisons, len(res.Pairs), fams)
	}
	tab.AddNote("paper: CPU 44.9s vs IPU 9.6s (4.7×) on 500k metaclust proteins")
	tab.Render(opt.W)
	return nil
}
