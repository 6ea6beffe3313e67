// Multi-tenant admission tests: the fair-share bucket must refuse a
// greedy tenant without touching a polite one, and a saturated shard
// must shed with 429 + a parseable Retry-After instead of blocking the
// connection on the engine's admission queue.

package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
)

// postDetached submits the payload as the given tenant with ?stream=0
// and returns the response (body closed, job left running server-side).
func postDetached(t *testing.T, ts *httptest.Server, tenant string, payload []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?stream=0", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeDataset)
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func requireRetryAfter(t *testing.T, resp *http.Response) int {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("refusal %s carried no Retry-After", resp.Status)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer second count", ra)
	}
	return secs
}

// TestServiceTenantFairShare: a tenant burning through its burst gets
// 429 from its own bucket while another tenant's first submission is
// still admitted — one client's greed cannot starve the rest.
func TestServiceTenantFairShare(t *testing.T) {
	opts := []engine.Option{
		engine.WithDriverConfig(testCfg(1)), engine.WithQueueDepth(64), engine.WithExecutors(2),
	}
	svc := service.New(service.Config{
		Shards: 1, EngineOptions: opts,
		// A refill slow enough that the bucket cannot recover a token
		// mid-test: admission is burst-only for both tenants.
		TenantRatePerSec: 0.001, TenantBurst: 2,
	})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	payload, err := wire.EncodeDataset(readsData(t, 5, 6))
	if err != nil {
		t.Fatal(err)
	}

	greedyRefused := 0
	for i := 0; i < 4; i++ {
		resp := postDetached(t, ts, "greedy", payload)
		switch {
		case i < 2 && resp.StatusCode != http.StatusAccepted:
			t.Fatalf("greedy submit %d inside burst: %s", i, resp.Status)
		case i >= 2:
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("greedy submit %d past burst: got %s, want 429", i, resp.Status)
			}
			requireRetryAfter(t, resp)
			greedyRefused++
		}
	}
	if greedyRefused != 2 {
		t.Fatalf("greedy refusals = %d, want 2", greedyRefused)
	}

	// The polite tenant's bucket is untouched by the greedy tenant's
	// exhaustion.
	if resp := postDetached(t, ts, "polite", payload); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("polite tenant refused despite fresh bucket: %s", resp.Status)
	}

	var stats service.StatsReply
	getJSON(t, ts, "/v1/stats", &stats)
	if g := stats.Tenants["greedy"]; g.RateLimited != 2 || g.Submitted != 2 {
		t.Fatalf("greedy counters: %+v", g)
	}
	if p := stats.Tenants["polite"]; p.RateLimited != 0 || p.Submitted != 1 {
		t.Fatalf("polite counters: %+v", p)
	}
}

// TestServiceLoadShedding: with MaxLiveJobs 1 and a deliberately slow
// shard, the second submission is shed with 429 + Retry-After while the
// first still runs; once the first drains, submission works again.
func TestServiceLoadShedding(t *testing.T) {
	// Every batch straggles 200ms, so the first job reliably spans the
	// second submission attempt.
	cfg := testCfg(1)
	cfg.Faults = driver.NewFaultPlan(1, driver.FaultSpec{
		StragglerRate: 1, StragglerDelay: 200 * time.Millisecond,
	})
	opts := []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithQueueDepth(8), engine.WithExecutors(1),
	}
	svc := service.New(service.Config{Shards: 1, EngineOptions: opts, MaxLiveJobs: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	payload, err := wire.EncodeDataset(readsData(t, 7, 12))
	if err != nil {
		t.Fatal(err)
	}
	if resp := postDetached(t, ts, "a", payload); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s", resp.Status)
	}
	resp := postDetached(t, ts, "b", payload)
	if resp.StatusCode != service.StatusServiceSaturated {
		t.Fatalf("second submit on saturated shard: got %s, want 429", resp.Status)
	}
	requireRetryAfter(t, resp)

	// Shedding is load, not lockout: wait for the shard to drain and
	// the same tenant is admitted again.
	waitForLive(t, svc, 0, 10*time.Second)
	if resp := postDetached(t, ts, "b", payload); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after drain: %s", resp.Status)
	}
	waitForLive(t, svc, 0, 10*time.Second)
}

// TestServiceRefusalsRefundTenantToken: a submission refused for a reason
// other than the tenant's own rate — a malformed body, one over
// MaxBodyBytes, a saturated shard, an engine that will not take it, a
// server that is closing — gives its admission token back: after more such
// refusals than the bucket holds, the bucket is as full as before them, and
// where the server can still run a job the tenant can still submit one.
func TestServiceRefusalsRefundTenantToken(t *testing.T) {
	const burst, refusals = 2, 5
	payload, err := wire.EncodeDataset(readsData(t, 7, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		maxBody int64
		arrange func(t *testing.T, svc *service.Server, ts *httptest.Server) // before the refusals
		body    []byte                                                       // what tenant "t" posts while being refused
		status  int
		shed    int64
		restore func(svc *service.Server) // after them; nil where the server cannot accept the payload again
	}{
		{name: "bad body", body: []byte("not a dataset"), status: http.StatusBadRequest,
			restore: func(*service.Server) {}},
		{name: "body too large", maxBody: 64, body: payload, status: http.StatusRequestEntityTooLarge},
		{name: "shard saturated", body: payload, status: service.StatusServiceSaturated, shed: refusals,
			// Another tenant's job holds the shard at MaxLiveJobs.
			arrange: func(t *testing.T, _ *service.Server, ts *httptest.Server) {
				if resp := postDetached(t, ts, "holder", payload); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("holder submit: %s", resp.Status)
				}
			},
			restore: func(*service.Server) {}},
		{name: "engine refuses", body: payload, status: http.StatusServiceUnavailable,
			arrange: func(_ *testing.T, svc *service.Server, _ *httptest.Server) { svc.Shards()[0].Close() }},
		{name: "server closing", body: payload, status: http.StatusServiceUnavailable,
			arrange: func(_ *testing.T, svc *service.Server, _ *httptest.Server) { svc.SetClosing(true) },
			restore: func(svc *service.Server) { svc.SetClosing(false) }},
		// A closing server refuses before it decodes the body or consults a
		// shard: a malformed body and a shard held at MaxLiveJobs would
		// otherwise answer 400 and 429.
		{name: "server closing refuses first", body: []byte("not a dataset"), status: http.StatusServiceUnavailable,
			arrange: func(t *testing.T, svc *service.Server, ts *httptest.Server) {
				if resp := postDetached(t, ts, "holder", payload); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("holder submit: %s", resp.Status)
				}
				svc.SetClosing(true)
			},
			restore: func(svc *service.Server) { svc.SetClosing(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(1)
			cfg.Faults = driver.NewFaultPlan(1, driver.FaultSpec{
				StragglerRate: 1, StragglerDelay: 300 * time.Millisecond,
			})
			svc := service.New(service.Config{
				Shards: 1, MaxLiveJobs: 1, MaxBodyBytes: tc.maxBody,
				EngineOptions: []engine.Option{
					engine.WithDriverConfig(cfg), engine.WithQueueDepth(8), engine.WithExecutors(1),
				},
				// No refill inside the test: only a refund restores a token.
				TenantRatePerSec: 0.001, TenantBurst: burst,
			})
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			if tc.arrange != nil {
				tc.arrange(t, svc, ts)
			}
			for i := 0; i < refusals; i++ {
				if resp := postDetached(t, ts, "t", tc.body); resp.StatusCode != tc.status {
					t.Fatalf("refusal %d: got %s, want %d", i, resp.Status, tc.status)
				}
			}
			if got := svc.TenantTokens("t"); got < burst-0.01 {
				t.Fatalf("bucket holds %.3f tokens after %d refusals, want %d", got, refusals, burst)
			}
			var stats service.StatsReply
			getJSON(t, ts, "/v1/stats", &stats)
			if got := stats.Tenants["t"]; got.RateLimited != 0 || got.Shed != tc.shed {
				t.Fatalf("tenant counters after %d refusals: %+v", refusals, got)
			}
			if tc.restore == nil {
				return
			}
			tc.restore(svc)
			waitForLive(t, svc, 0, 10*time.Second)
			if resp := postDetached(t, ts, "t", payload); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit after %d refunded refusals (burst %d): %s", refusals, burst, resp.Status)
			}
			waitForLive(t, svc, 0, 10*time.Second)
		})
	}
}

// waitForLive polls the shard pool until the live-job total reaches n.
func waitForLive(t *testing.T, svc *service.Server, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		live := 0
		for _, e := range svc.Shards() {
			live += e.Stats().JobsLive
		}
		if live == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live jobs stuck at %d, want %d", live, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, dst any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}
