package main

import (
	"encoding/json"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	// deterministic marks modeled (simulated-IPU) values: two runs of one
	// commit at one seed must agree exactly, whatever the host does.
	deterministic bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: &bound}
}

func modeled(name, unit, better string, bound float64) metricDef {
	d := e2e(name, unit, better, bound)
	d.deterministic = true
	return d
}

// endToEnd is what a user of the aligner sees, reported untraced on every
// workload. The host is a shared 2-vCPU VM that runs up to 1.5× slower for
// minutes at a time, so the times and the rate are scaled to quiet-host
// seconds by a yardstick sampled alongside them (hostspeed.go). That takes
// their spread over ten seeds from 9–27% to 2–8% (README, "Observed
// spread") but not to zero, so they carry the widest bound the contract
// allows; allocation and the modeled metrics do not depend on the host's
// speed and are held tighter.
var endToEnd = []metricDef{
	e2e("cmps_per_s", "1/s", "higher", 0.25),
	e2e("job_s_p50", "s", "lower", 0.25),
	e2e("ttfb_s_p50", "s", "lower", 0.25),
	e2e("alloc_mb_per_job", "MB", "lower", 0.10),
	e2e("peak_rss_mb", "MB", "lower", 0.25),
	modeled("modeled_gcups", "GCUPS", "higher", 0.12),
	modeled("modeled_sram_peak_bytes", "B", "lower", 0.12),
	e2e("setup_s", "s", "lower", 0.25),
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// count is a per-layer metric that repeats exactly: a count, a size or a
// modeled time, not a host time.
func count(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, deterministic: true}
}

// perLayer is the outside-in breakdown of one job, from the traced run.
// Host times (layer) are medians over the run's repetitions; counts,
// sizes and modeled times (count) repeat exactly at a given seed.
var perLayer = []metricDef{
	layer("wire.decode_dataset_s", "s", "lower"),
	layer("wire.encode_dataset_s", "s", "lower"),
	layer("wire.encode_results_s", "s", "lower"),
	count("wire.dataset_bytes", "B", "lower"),
	count("wire.results_bytes", "B", "lower"),

	layer("workload.dedup_plan_s", "s", "lower"),
	count("workload.dedup_ratio", "ratio", "higher"),
	layer("workload.pin_s", "s", "lower"),
	count("workload.arena_bytes", "B", "lower"),

	layer("partition.derive_budget_s", "s", "lower"),
	layer("partition.build_items_s", "s", "lower"),
	layer("partition.make_batches_s", "s", "lower"),
	count("partition.batches", "count", "lower"),
	count("partition.reuse_factor", "ratio", "higher"),
	count("partition.tiles_used", "count", "higher"),

	layer("driver.build_batches_s", "s", "lower"),
	layer("driver.build_self_s", "s", "lower"),
	layer("driver.exec_wall_s", "s", "lower"),
	layer("driver.assemble_s", "s", "lower"),
	layer("driver.schedule_s", "s", "lower"),
	count("driver.cache_hits", "count", "higher"),
	count("driver.cache_misses", "count", "lower"),

	layer("ipukernel.run_busy_s", "s", "lower"),
	layer("ipukernel.self_s", "s", "lower"),
	count("ipukernel.modeled_compute_s", "s", "lower"),
	count("ipukernel.steal_ops", "count", "lower"),
	count("ipukernel.max_sram_bytes", "B", "lower"),

	layer("core.extend_s", "s", "lower"),
	count("core.cells", "count", "lower"),
	count("core.theoretical_cells", "count", "lower"),
	count("core.search_space_share", "ratio", "lower"),
	count("core.mean_band", "cells", "lower"),
	layer("core.mcells_per_s", "Mcells/s", "higher"),
	layer("core.restricted2.mcells_per_s", "Mcells/s", "higher"),
	layer("core.standard3.mcells_per_s", "Mcells/s", "higher"),
	layer("core.affine.mcells_per_s", "Mcells/s", "higher"),
	layer("core.restricted2_narrow.mcells_per_s", "Mcells/s", "higher"),
	layer("core.trace_replay.mcells_per_s", "Mcells/s", "higher"),
	layer("core.trace_fused.mcells_per_s", "Mcells/s", "higher"),
	count("core.peak_trace_bytes", "B", "lower"),
	count("core.traced_extensions", "count", "lower"),
	count("core.work_bytes_peak", "B", "lower"),

	layer("engine.job_s", "s", "lower"),
	layer("engine.overhead_s", "s", "lower"),
	layer("engine.submit_block_s", "s", "lower"),
	count("engine.cache_hit_rate", "ratio", "higher"),
	layer("engine.alloc_mb_per_job", "MB", "lower"),

	layer("service.raw_job_s", "s", "lower"),
	layer("service.overhead_s", "s", "lower"),
	count("service.stream_bytes", "B", "lower"),
	count("service.chunks", "count", "lower"),
	layer("service.stream_mb_per_s", "MB/s", "higher"),
	count("service.refused_429", "count", "lower"),

	layer("serviceclient.replay_s", "s", "lower"),
	layer("serviceclient.decode_mb_per_s", "MB/s", "higher"),

	count("ipu.modeled_wall_s", "s", "lower"),
	count("ipu.transfer_s", "s", "lower"),
	count("ipu.host_bytes_in", "B", "lower"),
	count("ipu.host_bytes_out", "B", "lower"),

	layer("client.jobs", "count", "higher"),
	layer("client.job_s_p90", "s", "lower"),
	layer("client.ttfb_s_p90", "s", "lower"),
	count("client.clients", "count", "higher"),

	layer("trace.replica_wall_s", "s", "lower"),
	layer("trace.replica_ratio", "ratio", "lower"),
	layer("trace.self_sum_ratio", "ratio", "lower"),
}

// runSeconds is how long one driver run measures. With three set-ups
// (2.5–4.5 s each on 2 cores, the longer in a busy spell of the host) and
// the host-speed samples a run takes 29–31 s (39 s at most), so the
// driver's 4 + 22 × 4 runs and two builds need 2700–2950 s of its 3420 s
// cap.
const runSeconds = 16

// manifest renders BENCHMARK.json from the definitions above, so the
// contract file and the program cannot drift apart (the test compares
// them).
func manifest() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadDef{s.name, s.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the definitions above marshal by construction
	}
	return append(out, '\n')
}
