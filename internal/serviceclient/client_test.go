// Client transport tests: refused submissions retry with backoff until
// admitted, and a stream that dies mid-job resumes from the cursor —
// both without disturbing the assembled report.

package serviceclient_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testCfg() driver.Config {
	return driver.Config{
		IPUs: 1, Model: platform.GC200, TilesPerIPU: 8, Partition: true,
		Kernel: ipukernel.Config{
			Params:  core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit: true, WorkStealing: true, BusyWaitVariance: true, DualIssue: true,
		},
	}
}

func testData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "cli", GenomeLen: 40000, Coverage: 8, MeanReadLen: 1800, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func golden(t *testing.T, opts []engine.Option, d *workload.Dataset) *driver.Report {
	t.Helper()
	e := engine.New(opts...)
	defer e.Close()
	job, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServiceClientRetriesRefusals: the first submissions bounce off a
// 429 middleware; the client backs off and lands the job, and the report
// matches the in-process golden.
func TestServiceClientRetriesRefusals(t *testing.T) {
	opts := []engine.Option{engine.WithDriverConfig(testCfg()), engine.WithExecutors(1)}
	d := testData(t, 41, 18)
	want := golden(t, opts, d)

	svc := service.New(service.Config{Shards: 1, EngineOptions: opts})
	defer svc.Close()
	var refusals atomic.Int64
	refusals.Store(2)
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			attempts.Add(1)
			if refusals.Add(-1) >= 0 {
				io.Copy(io.Discard, r.Body) // an unread body makes the server linger 0.5 s on close
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"synthetic saturation"}`, http.StatusTooManyRequests)
				return
			}
		}
		svc.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := serviceclient.New(ts.URL,
		serviceclient.WithTransportRetry(4),
		serviceclient.WithTransportBackoff(time.Millisecond, 10*time.Millisecond))
	job, err := c.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report after retried submit differs\n got: %+v\nwant: %+v", got, want)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("submit attempts = %d, want 3 (two refusals, one success)", n)
	}
}

// TestServiceClientGivesUpAfterRetries: persistent refusal surfaces as a
// terminal error naming the exhausted attempts, not a hang.
func TestServiceClientGivesUpAfterRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // an unread body makes the server linger 0.5 s on close
		http.Error(w, `{"error":"always full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := serviceclient.New(ts.URL,
		serviceclient.WithTransportRetry(3),
		serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
	_, err := c.Submit(context.Background(), testData(t, 43, 6))
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("want exhausted-retries error, got %v", err)
	}
	if !strings.Contains(err.Error(), "always full") {
		t.Fatalf("terminal error lost the server's reason: %v", err)
	}
}

// abortOnce kills the first streaming response after limit lines,
// forcing the client onto its resume path exactly once.
type abortOnce struct {
	inner http.Handler
	limit int
	used  atomic.Bool
}

func (h *abortOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && h.used.CompareAndSwap(false, true) {
		h.inner.ServeHTTP(&lineLimitWriter{ResponseWriter: w, limit: h.limit}, r)
		return
	}
	h.inner.ServeHTTP(w, r)
}

type lineLimitWriter struct {
	http.ResponseWriter
	limit, lines int
}

func (w *lineLimitWriter) Write(p []byte) (int, error) {
	if w.lines >= w.limit {
		panic(http.ErrAbortHandler)
	}
	n, err := w.ResponseWriter.Write(p)
	for _, b := range p[:n] {
		if b == '\n' {
			w.lines++
		}
	}
	return n, err
}

func (w *lineLimitWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestServiceClientResumesDroppedStream: the submit stream dies after a
// few lines; the client resumes from its cursor, every comparison
// arrives exactly once, the report matches the golden, and the engine
// never re-executed a batch.
func TestServiceClientResumesDroppedStream(t *testing.T) {
	// Slow the batches slightly so the stream reliably has undelivered
	// chunks when the abort fires.
	calmCfg := testCfg()
	calmCfg.MaxBatchJobs = 4
	slowCfg := calmCfg
	slowCfg.Faults = driver.NewFaultPlan(2, driver.FaultSpec{StragglerRate: 1, StragglerDelay: 20 * time.Millisecond})
	opts := []engine.Option{engine.WithDriverConfig(slowCfg), engine.WithExecutors(1)}
	calm := []engine.Option{engine.WithDriverConfig(calmCfg), engine.WithExecutors(1)}
	d := testData(t, 47, 24)
	want := golden(t, calm, d)

	svc := service.New(service.Config{Shards: 1, EngineOptions: opts})
	defer svc.Close()
	ah := &abortOnce{inner: svc.Handler(), limit: 3}
	ts := httptest.NewServer(ah)
	defer ts.Close()

	c := serviceclient.New(ts.URL,
		serviceclient.WithStreamLinger(30*time.Second),
		serviceclient.WithTransportRetry(4),
		serviceclient.WithTransportBackoff(2*time.Millisecond, 20*time.Millisecond))
	job, err := c.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for u := range job.Results() {
		for _, o := range u.Results {
			seen[o.GlobalID]++
		}
	}
	got, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ah.used.Load() {
		t.Fatal("abort middleware never fired; resume path untested")
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("comparison %d streamed %d times across resume", id, n)
		}
	}
	if len(seen) != len(d.Comparisons) {
		t.Fatalf("stream covered %d of %d comparisons", len(seen), len(d.Comparisons))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report after resume differs\n got: %+v\nwant: %+v", got, want)
	}
	if st := svc.Shards()[0].Stats(); st.BatchesDone != int64(want.Batches) {
		t.Fatalf("engine executed %d batches for a %d-batch schedule: resume re-ran work",
			st.BatchesDone, want.Batches)
	}
}

// TestServiceClientCancel: Cancel settles Wait with the job's
// cancellation error.
func TestServiceClientCancel(t *testing.T) {
	cfg := testCfg()
	cfg.MaxBatchJobs = 4
	cfg.Faults = driver.NewFaultPlan(8, driver.FaultSpec{StragglerRate: 1, StragglerDelay: 100 * time.Millisecond})
	opts := []engine.Option{engine.WithDriverConfig(cfg), engine.WithExecutors(1)}
	svc := service.New(service.Config{Shards: 1, EngineOptions: opts})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	c := serviceclient.New(ts.URL)
	job, err := c.Submit(context.Background(), testData(t, 53, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Cancel(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err == nil {
		t.Fatal("cancelled job's Wait returned no error")
	}
}
