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
	JobsSnapshot
	// KernelISA names the row body this host runs the linear int32 sweep
	// with (core.RowISA: "avx2" or "generic"). Results do not depend on
	// it; throughput does.
	KernelISA string `json:"kernelISA"`
}

// JobsSnapshot is the server-wide job-tracking state.
type JobsSnapshot struct {
	// TrackedJobs counts jobs currently addressable (live + retained).
	TrackedJobs int `json:"trackedJobs"`
	// RetainedBytes is the encoded replay windows settled jobs hold
	// resident for late readers; it stays under the retention budget
	// unless a single job exceeds it.
	RetainedBytes int64 `json:"retainedBytes"`
	// EvictedJobs counts settled jobs dropped before their TTL because
	// newer ones took RetainedBytes over the budget — each a job id that
	// answers 404 earlier than JobTTL promised.
	EvictedJobs int64 `json:"evictedJobs"`
}

func (s *Server) jobsSnapshotLocked() JobsSnapshot {
	return JobsSnapshot{TrackedJobs: len(s.jobs), RetainedBytes: s.retainedBytes, EvictedJobs: s.evictedJobs}
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
	tot := ShardSnapshot{Shard: -1}
	for _, sn := range shards {
		tot.Stats.Add(sn.Stats)
		tot.QueueDepth += sn.QueueDepth
		tot.QueueOccupancy = max(tot.QueueOccupancy, sn.QueueOccupancy)
	}
	tot.CacheHitRate = metrics.HitRate(tot.CacheHits, tot.CacheMisses)

	s.mu.Lock()
	tenants := make(map[string]tenantState, len(s.tenants))
	for name, ts := range s.tenants {
		tenants[name] = *ts
	}
	jobs := s.jobsSnapshotLocked()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(StatsReply{
		Tenants: tenants, Shards: shards, Totals: tot, JobsSnapshot: jobs,
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

// shardFamilies is GET /v1/metrics' per-shard section, one row per
// family in output order: a counter or gauge a shard reports is exported
// by adding its row here (TestServiceStatsAndMetricsExposition fails on
// an engine.Stats field no row renders).
var shardFamilies = []struct {
	name, help, typ string
	get             func(*ShardSnapshot) float64
}{
	{"xdropipu_engine_jobs_done_total", "Completed submissions per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.JobsDone) }},
	{"xdropipu_engine_batches_done_total", "Executed batches per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.BatchesDone) }},
	{"xdropipu_engine_cells_done_total", "Computed DP cells per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.CellsDone) }},
	{"xdropipu_engine_jobs_live", "Admitted unfinished submissions per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return float64(s.JobsLive) }},
	{"xdropipu_engine_inflight_batches", "Batches currently executing per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return float64(s.InflightBatches) }},
	{"xdropipu_engine_queue_depth", "Admission queue bound per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return float64(s.QueueDepth) }},
	{"xdropipu_engine_queue_occupancy", "JobsLive/QueueDepth per shard; the primary autoscaling signal.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return s.QueueOccupancy }},
	{"xdropipu_engine_cache_hits_total", "Result-cache hits per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.CacheHits) }},
	{"xdropipu_engine_cache_misses_total", "Result-cache misses per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.CacheMisses) }},
	{"xdropipu_engine_cache_evictions_total", "Result-cache evictions per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.CacheEvictions) }},
	{"xdropipu_engine_cache_bytes", "Resident result-cache footprint per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return float64(s.CacheBytes) }},
	{"xdropipu_engine_cache_entries", "Extensions resident in the result cache per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return float64(s.CacheEntries) }},
	{"xdropipu_engine_cache_hit_rate", "Lifetime cache hit rate per shard.", metrics.PromGauge,
		func(s *ShardSnapshot) float64 { return s.CacheHitRate }},
	{"xdropipu_engine_traced_extensions_total", "Extensions that delivered a recorded traceback per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.TracedExtensions) }},
	{"xdropipu_engine_trace_skipped_extensions_total", "Extensions the traceback score gate skipped per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.TraceSkippedExtensions) }},
	{"xdropipu_engine_retries_total", "Batch retries after transient faults per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.Retries) }},
	{"xdropipu_engine_hedges_total", "Hedged duplicate executions per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.Hedges) }},
	{"xdropipu_engine_quarantined_total", "Batches completed degraded per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.Quarantined) }},
	{"xdropipu_engine_faults_injected_total", "Injected faults per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.FaultsInjected) }},
	{"xdropipu_engine_deadline_exceeded_total", "Jobs past their deadline per shard.", metrics.PromCounter,
		func(s *ShardSnapshot) float64 { return float64(s.DeadlineExceeded) }},
}

// tenantFamilies is the per-tenant section, likewise in output order.
var tenantFamilies = []struct {
	name, help, typ string
	get             func(*tenantState) float64
}{
	{"xdropipu_service_jobs_submitted_total", "Admitted submissions per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.Submitted) }},
	{"xdropipu_service_jobs_completed_total", "Successfully finished jobs per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.Completed) }},
	{"xdropipu_service_jobs_failed_total", "Jobs settled with an error per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.Failed) }},
	{"xdropipu_service_jobs_cancelled_total", "Client-cancelled jobs per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.Cancelled) }},
	{"xdropipu_service_jobs_shed_total", "Submissions shed on queue depth per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.Shed) }},
	{"xdropipu_service_jobs_ratelimited_total", "Submissions refused by the fair-share bucket per tenant.", metrics.PromCounter,
		func(t *tenantState) float64 { return float64(t.RateLimited) }},
	{"xdropipu_service_jobs_live", "Live jobs per tenant.", metrics.PromGauge,
		func(t *tenantState) float64 { return float64(t.Live) }},
}

// jobFamilies is the server-wide section, likewise in output order.
var jobFamilies = []struct {
	name, help, typ string
	get             func(*JobsSnapshot) float64
}{
	{"xdropipu_service_jobs_tracked", "Jobs currently addressable (live plus retained).", metrics.PromGauge,
		func(j *JobsSnapshot) float64 { return float64(j.TrackedJobs) }},
	{"xdropipu_service_retained_replay_bytes", "Encoded replay windows held for settled jobs.", metrics.PromGauge,
		func(j *JobsSnapshot) float64 { return float64(j.RetainedBytes) }},
	{"xdropipu_service_jobs_evicted_total", "Settled jobs dropped before their TTL over the retained-bytes budget.", metrics.PromCounter,
		func(j *JobsSnapshot) float64 { return float64(j.EvictedJobs) }},
}

// histogramFamilies is the latency section, likewise in output order.
var histogramFamilies = []struct {
	name, help string
	get        func(*Server) *metrics.PromHistogram
}{
	{"xdropipu_service_first_chunk_seconds", "Seconds from a job's request to its first update, its phases' decode plus first update.",
		func(s *Server) *metrics.PromHistogram { return &s.firstChunk }},
	{"xdropipu_service_job_seconds", "Seconds from a job's request to its final record, its phases' wall.",
		func(s *Server) *metrics.PromHistogram { return &s.jobSeconds }},
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	shards := s.snapshotShards()
	fams := make([]metrics.PromFamily, 0, len(shardFamilies)+len(tenantFamilies)+len(jobFamilies)+len(histogramFamilies))
	for _, row := range shardFamilies {
		f := metrics.PromFamily{Name: row.name, Help: row.help, Type: row.typ}
		for i := range shards {
			f.Add(row.get(&shards[i]), "shard", strconv.Itoa(shards[i].Shard))
		}
		fams = append(fams, f)
	}

	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, row := range tenantFamilies {
		f := metrics.PromFamily{Name: row.name, Help: row.help, Type: row.typ}
		for _, name := range names {
			f.Add(row.get(s.tenants[name]), "tenant", name)
		}
		fams = append(fams, f)
	}
	jobs := s.jobsSnapshotLocked()
	s.mu.Unlock()
	for _, row := range jobFamilies {
		f := metrics.PromFamily{Name: row.name, Help: row.help, Type: row.typ}
		f.Add(row.get(&jobs))
		fams = append(fams, f)
	}
	for _, row := range histogramFamilies {
		fams = append(fams, row.get(s).Family(row.name, row.help))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, fams)
}
