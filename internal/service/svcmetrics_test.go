// Observability tests: the stats snapshot and the Prometheus exposition
// must reflect real engine counters after traffic, deterministically
// enough to scrape.

package service_test

import (
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
)

func TestServiceStatsAndMetricsExposition(t *testing.T) {
	cfg := testCfg(1)
	cfg.DedupExtensions = true
	opts := []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithExecutors(1),
		engine.WithResultCache(1024),
	}
	svc := service.New(service.Config{Shards: 2, EngineOptions: opts})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	payload, err := wire.EncodeDataset(readsData(t, 29, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Two identical submissions from one tenant: the second must hit the
	// affinity-routed shard's warm cache — so it may only be planned once
	// the first has finished and stored its results.
	for i := 0; i < 2; i++ {
		resp := postDetached(t, ts, "alpha", payload)
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		waitForLive(t, svc, 0, 10*time.Second)
	}

	// The pump settles a tenant's counters just after the engine reports
	// the job done; poll until it has.
	var stats service.StatsReply
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		stats = service.StatsReply{}
		getJSON(t, ts, "/v1/stats", &stats)
		if stats.Tenants["alpha"].Live == 0 || time.Now().After(deadline) {
			break
		}
	}
	if stats.Totals.JobsDone != 2 {
		t.Fatalf("totals.JobsDone = %d, want 2", stats.Totals.JobsDone)
	}
	if stats.Totals.CacheHits == 0 {
		t.Fatalf("repeat submission missed the affinity-routed cache: %+v", stats.Totals)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("stats carry %d shards, want 2", len(stats.Shards))
	}
	if stats.KernelISA == "" || stats.KernelISA != core.RowISA() {
		t.Fatalf("stats kernelISA = %q, want %q", stats.KernelISA, core.RowISA())
	}
	a := stats.Tenants["alpha"]
	if a.Submitted != 2 || a.Completed != 2 || a.Live != 0 {
		t.Fatalf("tenant alpha counters: %+v", a)
	}

	// Both settled jobs are retained for late readers, well under the byte
	// budget: their windows are what RetainedBytes reports.
	if stats.TrackedJobs != 2 || stats.RetainedBytes <= 0 || stats.EvictedJobs != 0 {
		t.Fatalf("job tracking: %+v", stats.JobsSnapshot)
	}

	// The reply's and the shard object's key sets are scraped contracts
	// (the Go-cased keys are engine.Stats' untagged fields, embedded).
	var top map[string]any
	getJSON(t, ts, "/v1/stats", &top)
	var topKeys []string
	for k := range top {
		topKeys = append(topKeys, k)
	}
	slices.Sort(topKeys)
	if want := []string{"evictedJobs", "kernelISA", "retainedBytes", "shards", "tenants", "totals", "trackedJobs"}; !slices.Equal(topKeys, want) {
		t.Fatalf("/v1/stats keys changed:\n got %q\nwant %q", topKeys, want)
	}
	var raw struct {
		Shards []map[string]any `json:"shards"`
	}
	getJSON(t, ts, "/v1/stats", &raw)
	var shardKeys []string
	for k := range raw.Shards[0] {
		shardKeys = append(shardKeys, k)
	}
	slices.Sort(shardKeys)
	if want := []string{
		"BatchesDone", "CacheBytes", "CacheEntries", "CacheEvictions", "CacheHits", "CacheMisses",
		"CellsDone", "DeadlineExceeded", "FaultsInjected", "Hedges", "InflightBatches",
		"JobsDone", "JobsLive", "NarrowExtensions", "PromotedExtensions", "Quarantined",
		"Retries", "TraceSkippedExtensions", "TracedExtensions", "WideExtensions",
		"cacheHitRate", "queueDepth", "queueOccupancy", "shard",
	}; !slices.Equal(shardKeys, want) {
		t.Fatalf("/v1/stats shard keys changed:\n got %q\nwant %q", shardKeys, want)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// Every family, its type and the order they render in.
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, fam)
		}
	}
	if want := []string{
		"xdropipu_engine_jobs_done_total counter",
		"xdropipu_engine_batches_done_total counter",
		"xdropipu_engine_cells_done_total counter",
		"xdropipu_engine_jobs_live gauge",
		"xdropipu_engine_inflight_batches gauge",
		"xdropipu_engine_queue_depth gauge",
		"xdropipu_engine_queue_occupancy gauge",
		"xdropipu_engine_cache_hits_total counter",
		"xdropipu_engine_cache_misses_total counter",
		"xdropipu_engine_cache_evictions_total counter",
		"xdropipu_engine_cache_bytes gauge",
		"xdropipu_engine_cache_entries gauge",
		"xdropipu_engine_cache_hit_rate gauge",
		"xdropipu_engine_narrow_extensions_total counter",
		"xdropipu_engine_wide_extensions_total counter",
		"xdropipu_engine_promoted_extensions_total counter",
		"xdropipu_engine_traced_extensions_total counter",
		"xdropipu_engine_trace_skipped_extensions_total counter",
		"xdropipu_engine_retries_total counter",
		"xdropipu_engine_hedges_total counter",
		"xdropipu_engine_quarantined_total counter",
		"xdropipu_engine_faults_injected_total counter",
		"xdropipu_engine_deadline_exceeded_total counter",
		"xdropipu_service_jobs_submitted_total counter",
		"xdropipu_service_jobs_completed_total counter",
		"xdropipu_service_jobs_failed_total counter",
		"xdropipu_service_jobs_cancelled_total counter",
		"xdropipu_service_jobs_shed_total counter",
		"xdropipu_service_jobs_ratelimited_total counter",
		"xdropipu_service_jobs_live gauge",
		"xdropipu_service_jobs_tracked gauge",
		"xdropipu_service_retained_replay_bytes gauge",
		"xdropipu_service_jobs_evicted_total counter",
		"xdropipu_service_first_chunk_seconds histogram",
		"xdropipu_service_job_seconds histogram",
	}; !slices.Equal(families, want) {
		t.Fatalf("/v1/metrics families changed:\n got %q\nwant %q", families, want)
	}
	for _, want := range []string{
		"# TYPE xdropipu_engine_jobs_done_total counter",
		`xdropipu_engine_jobs_done_total{shard="0"}`,
		`xdropipu_engine_jobs_done_total{shard="1"}`,
		"# TYPE xdropipu_engine_queue_occupancy gauge",
		`xdropipu_service_jobs_submitted_total{tenant="alpha"} 2`,
		`xdropipu_service_jobs_completed_total{tenant="alpha"} 2`,
		"xdropipu_service_jobs_tracked 2",
		"xdropipu_service_jobs_evicted_total 0",
		"xdropipu_engine_cache_hits_total",
		// Both completed jobs produced a chunk — the second its cache-served
		// Batch == -1 one — so each was observed once, in some finite bucket.
		`xdropipu_service_first_chunk_seconds_bucket{le="0.001"}`,
		`xdropipu_service_first_chunk_seconds_bucket{le="+Inf"} 2`,
		"xdropipu_service_first_chunk_seconds_count 2",
		// Both settled, so both were timed from creation to finish.
		`xdropipu_service_job_seconds_bucket{le="+Inf"} 2`,
		"xdropipu_service_job_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}
