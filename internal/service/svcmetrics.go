// Observability endpoints: GET /v1/stats serves the JSON snapshot a
// dashboard or autoscaler consumes (per-tenant admission counters,
// per-shard engine stats with derived occupancy/hit-rate signals), and
// GET /v1/metrics serves the same counters in Prometheus text exposition
// format via internal/metrics.WriteProm.

package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/metrics"
)

// ShardSnapshot is one engine shard's stats plus the derived autoscaling
// signals.
type ShardSnapshot struct {
	Shard int `json:"shard"`
	engine.Stats
	// QueueDepth is the shard's admission bound; QueueOccupancy is
	// JobsLive/QueueDepth — the primary scale-out signal.
	QueueDepth     int     `json:"queueDepth"`
	QueueOccupancy float64 `json:"queueOccupancy"`
	// CacheHitRate is hits/(hits+misses) over the shard's lifetime.
	CacheHitRate float64 `json:"cacheHitRate"`
}

// StatsReply is the GET /v1/stats payload.
type StatsReply struct {
	// Tenants maps tenant name to admission counters.
	Tenants map[string]tenantState `json:"tenants"`
	// Shards holds one snapshot per engine shard.
	Shards []ShardSnapshot `json:"shards"`
	// Totals aggregates the shard snapshots (sum of counters, max of
	// occupancy) — the single-glance autoscaling view.
	Totals ShardSnapshot `json:"totals"`
	// TrackedJobs counts jobs currently addressable (live + retained).
	TrackedJobs int `json:"trackedJobs"`
	// KernelISA names the row body this host runs the linear int32 sweep
	// with (core.RowISA: "avx2" or "generic"). Results do not depend on
	// it; throughput does.
	KernelISA string `json:"kernelISA"`
}

func (s *Server) snapshotShards() []ShardSnapshot {
	snaps := make([]ShardSnapshot, len(s.shards))
	for i, e := range s.shards {
		st := e.Stats()
		depth := e.QueueDepth()
		snaps[i] = ShardSnapshot{
			Shard: i, Stats: st, QueueDepth: depth,
			QueueOccupancy: float64(st.JobsLive) / float64(depth),
			CacheHitRate:   metrics.HitRate(st.CacheHits, st.CacheMisses),
		}
	}
	return snaps
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	shards := s.snapshotShards()
	var tot ShardSnapshot
	tot.Shard = -1
	for _, sn := range shards {
		tot.JobsDone += sn.JobsDone
		tot.BatchesDone += sn.BatchesDone
		tot.CellsDone += sn.CellsDone
		tot.JobsLive += sn.JobsLive
		tot.InflightBatches += sn.InflightBatches
		tot.CacheHits += sn.CacheHits
		tot.CacheMisses += sn.CacheMisses
		tot.CacheEvictions += sn.CacheEvictions
		tot.CacheBytes += sn.CacheBytes
		tot.NarrowExtensions += sn.NarrowExtensions
		tot.WideExtensions += sn.WideExtensions
		tot.PromotedExtensions += sn.PromotedExtensions
		tot.TracedExtensions += sn.TracedExtensions
		tot.TraceSkippedExtensions += sn.TraceSkippedExtensions
		tot.Retries += sn.Retries
		tot.Hedges += sn.Hedges
		tot.Quarantined += sn.Quarantined
		tot.FaultsInjected += sn.FaultsInjected
		tot.DeadlineExceeded += sn.DeadlineExceeded
		tot.QueueDepth += sn.QueueDepth
		if sn.QueueOccupancy > tot.QueueOccupancy {
			tot.QueueOccupancy = sn.QueueOccupancy
		}
	}
	tot.CacheHitRate = metrics.HitRate(tot.CacheHits, tot.CacheMisses)

	s.mu.Lock()
	tenants := make(map[string]tenantState, len(s.tenants))
	for name, ts := range s.tenants {
		tenants[name] = *ts
	}
	tracked := len(s.jobs)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(StatsReply{
		Tenants: tenants, Shards: shards, Totals: tot, TrackedJobs: tracked,
		KernelISA: core.RowISA(),
	})
}

// MarshalJSON exports only the counter fields of a tenant snapshot (the
// bucket internals are admission state, not stats).
func (t tenantState) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Submitted   int64 `json:"submitted"`
		Completed   int64 `json:"completed"`
		Failed      int64 `json:"failed"`
		Cancelled   int64 `json:"cancelled"`
		Shed        int64 `json:"shed"`
		RateLimited int64 `json:"rateLimited"`
		Live        int   `json:"live"`
	}{t.Submitted, t.Completed, t.Failed, t.Cancelled, t.Shed, t.RateLimited, t.Live})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	shards := s.snapshotShards()

	counter := func(name, help string) metrics.PromFamily {
		return metrics.PromFamily{Name: name, Help: help, Type: metrics.PromCounter}
	}
	gauge := func(name, help string) metrics.PromFamily {
		return metrics.PromFamily{Name: name, Help: help, Type: metrics.PromGauge}
	}

	jobsDone := counter("xdropipu_engine_jobs_done_total", "Completed submissions per shard.")
	batches := counter("xdropipu_engine_batches_done_total", "Executed batches per shard.")
	cells := counter("xdropipu_engine_cells_done_total", "Computed DP cells per shard.")
	live := gauge("xdropipu_engine_jobs_live", "Admitted unfinished submissions per shard.")
	inflight := gauge("xdropipu_engine_inflight_batches", "Batches currently executing per shard.")
	depth := gauge("xdropipu_engine_queue_depth", "Admission queue bound per shard.")
	occ := gauge("xdropipu_engine_queue_occupancy", "JobsLive/QueueDepth per shard; the primary autoscaling signal.")
	hits := counter("xdropipu_engine_cache_hits_total", "Result-cache hits per shard.")
	misses := counter("xdropipu_engine_cache_misses_total", "Result-cache misses per shard.")
	evict := counter("xdropipu_engine_cache_evictions_total", "Result-cache evictions per shard.")
	cbytes := gauge("xdropipu_engine_cache_bytes", "Approximate resident result-cache footprint per shard.")
	hitRate := gauge("xdropipu_engine_cache_hit_rate", "Lifetime cache hit rate per shard.")
	narrow := counter("xdropipu_engine_narrow_extensions_total", "Extensions completed on the int16 kernel tier per shard.")
	wide := counter("xdropipu_engine_wide_extensions_total", "Extensions executed on the int32 kernel tier per shard.")
	promoted := counter("xdropipu_engine_promoted_extensions_total", "Extensions that saturated int16 and re-ran int32 per shard.")
	traced := counter("xdropipu_engine_traced_extensions_total", "Extensions that delivered a recorded traceback per shard.")
	traceSkipped := counter("xdropipu_engine_trace_skipped_extensions_total", "Extensions the traceback score gate skipped per shard.")
	retries := counter("xdropipu_engine_retries_total", "Batch retries after transient faults per shard.")
	hedges := counter("xdropipu_engine_hedges_total", "Hedged duplicate executions per shard.")
	quarantined := counter("xdropipu_engine_quarantined_total", "Batches completed degraded per shard.")
	faults := counter("xdropipu_engine_faults_injected_total", "Injected faults per shard.")
	deadlines := counter("xdropipu_engine_deadline_exceeded_total", "Jobs past their deadline per shard.")

	for _, sn := range shards {
		l := strconv.Itoa(sn.Shard)
		jobsDone.Add(float64(sn.JobsDone), "shard", l)
		batches.Add(float64(sn.BatchesDone), "shard", l)
		cells.Add(float64(sn.CellsDone), "shard", l)
		live.Add(float64(sn.JobsLive), "shard", l)
		inflight.Add(float64(sn.InflightBatches), "shard", l)
		depth.Add(float64(sn.QueueDepth), "shard", l)
		occ.Add(sn.QueueOccupancy, "shard", l)
		hits.Add(float64(sn.CacheHits), "shard", l)
		misses.Add(float64(sn.CacheMisses), "shard", l)
		evict.Add(float64(sn.CacheEvictions), "shard", l)
		cbytes.Add(float64(sn.CacheBytes), "shard", l)
		hitRate.Add(sn.CacheHitRate, "shard", l)
		narrow.Add(float64(sn.NarrowExtensions), "shard", l)
		wide.Add(float64(sn.WideExtensions), "shard", l)
		promoted.Add(float64(sn.PromotedExtensions), "shard", l)
		traced.Add(float64(sn.TracedExtensions), "shard", l)
		traceSkipped.Add(float64(sn.TraceSkippedExtensions), "shard", l)
		retries.Add(float64(sn.Retries), "shard", l)
		hedges.Add(float64(sn.Hedges), "shard", l)
		quarantined.Add(float64(sn.Quarantined), "shard", l)
		faults.Add(float64(sn.FaultsInjected), "shard", l)
		deadlines.Add(float64(sn.DeadlineExceeded), "shard", l)
	}

	submitted := counter("xdropipu_service_jobs_submitted_total", "Admitted submissions per tenant.")
	completed := counter("xdropipu_service_jobs_completed_total", "Successfully finished jobs per tenant.")
	failed := counter("xdropipu_service_jobs_failed_total", "Jobs settled with an error per tenant.")
	cancelled := counter("xdropipu_service_jobs_cancelled_total", "Client-cancelled jobs per tenant.")
	shed := counter("xdropipu_service_jobs_shed_total", "Submissions shed on queue depth per tenant.")
	limited := counter("xdropipu_service_jobs_ratelimited_total", "Submissions refused by the fair-share bucket per tenant.")
	tliv := gauge("xdropipu_service_jobs_live", "Live jobs per tenant.")

	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.tenants[name]
		submitted.Add(float64(ts.Submitted), "tenant", name)
		completed.Add(float64(ts.Completed), "tenant", name)
		failed.Add(float64(ts.Failed), "tenant", name)
		cancelled.Add(float64(ts.Cancelled), "tenant", name)
		shed.Add(float64(ts.Shed), "tenant", name)
		limited.Add(float64(ts.RateLimited), "tenant", name)
		tliv.Add(float64(ts.Live), "tenant", name)
	}
	tracked := len(s.jobs)
	s.mu.Unlock()

	trackedG := gauge("xdropipu_service_jobs_tracked", "Jobs currently addressable (live plus retained).")
	trackedG.Add(float64(tracked))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, []metrics.PromFamily{
		jobsDone, batches, cells, live, inflight, depth, occ,
		hits, misses, evict, cbytes, hitRate,
		narrow, wide, promoted, traced, traceSkipped,
		retries, hedges, quarantined, faults, deadlines,
		submitted, completed, failed, cancelled, shed, limited, tliv,
		trackedG,
	})
}
