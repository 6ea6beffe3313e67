package main

import (
	"fmt"
	"runtime"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// defaultSeed is the seed golden.json was recorded at (the paper's arXiv
// date, like internal/bench).
const defaultSeed = 20230417

// datasetsPerWorkload distinct datasets are cycled round-robin, so no
// workload measures one lucky input and the cold workloads never resubmit
// a dataset while it is still hot in the CPU caches.
const datasetsPerWorkload = 4

// spec is one benchmark workload: the traffic (data shape), the
// configuration it runs under and the path it takes through the system.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// remote drives the loopback HTTP service through serviceclient;
	// otherwise jobs are submitted to an in-process engine.
	remote bool
	// warm resubmits datasets the result cache already holds, so the
	// kernel does no work.
	warm bool
	// reads shapes dataset i (the seed is filled in per dataset).
	reads synth.ReadsSpec
	// x, deltaB and traceback vary the kernel configuration.
	x, deltaB int
	traceback bool
}

// noisyLongReads is the paper's headline data regime: CLR-class long
// reads whose indel bursts widen the live band (internal/bench fig7).
//
// Every workload caps its comparisons below what the genome yields
// (the cap keeps the genome-ordered prefix, so the overlap graph stays
// dense). The driver varies the seed between runs, and without the cap
// a job's size — and with it every time, rate and allocation metric —
// moves by several percent from seed to seed.
func noisyLongReads(genome, comparisons int) synth.ReadsSpec {
	const mean = 900
	return synth.ReadsSpec{
		GenomeLen: genome, Coverage: 12,
		MeanReadLen: mean, MinReadLen: mean / 3, MaxReadLen: mean * 5 / 2,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: mean / 4,
		MaxComparisons: comparisons,
	}
}

// traceReads narrows the long reads' length range and doubles the issue's
// job. A traced job of ~650 comparisons over ~60 reads lets a few long
// reads decide its cost: with the full log-normal tail it moves by ±20%
// from seed to seed, with the narrowed range still by 7% (cells, quartile
// to quartile over ten seeds), at 1 300 comparisons by 2.5%.
func traceReads() synth.ReadsSpec {
	r := noisyLongReads(13_200, 1_300)
	r.MinReadLen, r.MaxReadLen = 600, 1350
	return r
}

// specs lists the workloads in presentation order. Each stresses a
// different layer, so an optimisation of one layer has a workload that
// exercises it and others on which the prediction is "no change".
var specs = []spec{
	{
		name:  "longread_cold",
		why:   "noisy long reads, no cache: core+ipukernel are ~90% of wall, so kernel work shows here and nothing else does",
		reads: noisyLongReads(36_000, 3_800),
		x:     15, deltaB: 256,
	},
	{
		name: "shortread_plan",
		why:  "150 bp reads, tens of thousands of tiny comparisons: BuildBatches+partition+AssemblePlan dominate, kernel work shows at half strength",
		reads: synth.ReadsSpec{
			GenomeLen: 8_400, Coverage: 30,
			MeanReadLen: 150, MinReadLen: 100, MaxReadLen: 250,
			Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 40,
			MaxComparisons: 32_000,
		},
		x: 5, deltaB: 32,
	},
	{
		name:   "service_trace_cold",
		why:    "loopback HTTP with traceback: core records directions and emits CIGARs; the only cold path through wire decode, engine, NDJSON-with-CIGAR and client assembly",
		remote: true,
		reads:  traceReads(),
		x:      15, deltaB: 256, traceback: true,
	},
	{
		name:   "service_replay_warm",
		why:    "loopback HTTP resubmission at ~100% cache hits: the kernel does no work, time is XDW decode, dedup, cache Get, NDJSON encode and client decode",
		remote: true, warm: true,
		reads: noisyLongReads(36_000, 3_800),
		x:     15, deltaB: 256,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// clients derives the closed-loop client count from the host: enough to
// keep every core busy, capped so a large host does not turn the
// workload into a queueing test. Over HTTP it is halved: a remote job
// occupies a client decoder and a server pump at once.
func (s spec) clients() int {
	n := min(runtime.NumCPU(), 4)
	if s.remote {
		n /= 2
	}
	return max(1, n)
}

// datasets generates the workload's inputs from the seed: dataset i uses
// seed+i. size scales the genome (and therefore comparisons per job).
func (s spec) datasets(seed int64, size float64) []*workload.Dataset {
	ds := make([]*workload.Dataset, datasetsPerWorkload)
	for i := range ds {
		r := s.reads
		r.Name = fmt.Sprintf("%s-%d", s.name, i)
		r.GenomeLen = max(int(float64(r.GenomeLen)*size), r.MeanReadLen)
		r.MaxComparisons = max(int(float64(r.MaxComparisons)*size), 1)
		r.Seed = seed + int64(i)
		ds[i] = synth.Reads(r)
	}
	return ds
}

// driverConfig is the configuration every workload shares, with all
// Table 1 kernel optimisations on (internal/bench kernelConfig), on a
// 1/8-scale GC200.
func (s spec) driverConfig() driver.Config {
	const scale = 8
	return driver.Config{
		IPUs:      1,
		Model:     platform.GC200.Scaled(scale),
		Partition: true,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: s.x, DeltaB: s.deltaB},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
		BatchOverheadSeconds: driver.DefaultBatchOverheadSeconds / scale,
		MaxBatchJobs:         64,
		Traceback:            s.traceback, // TraceModeAuto, TraceMinScore 0
	}
}

// engineOptions builds the engine (or every service shard). Only the warm
// workload gets a result cache; the others run without cache or dedup.
func (s spec) engineOptions() []engine.Option {
	opts := []engine.Option{engine.WithDriverConfig(s.driverConfig())}
	if s.warm {
		opts = append(opts, engine.WithResultCache(1<<18))
	}
	return opts
}
