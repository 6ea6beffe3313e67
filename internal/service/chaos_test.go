// Chaos composition: engine-side fault injection (transient failures,
// stragglers, retry, degraded fallback) layered under transport-side
// stream abortion, with the wire client's resume on top. The assembled
// report must still be bit-identical to a fault-free in-process run —
// the three fault-tolerance layers compose without duplicating or
// losing work.

package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// abortingHandler wraps the service handler and kills result-stream
// connections after lineLimit NDJSON lines, up to aborts times — the
// HTTP-level analogue of a flaky network path.
type abortingHandler struct {
	inner     http.Handler
	lineLimit int
	aborts    atomic.Int64 // remaining aborts
}

func (h *abortingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stream := (r.Method == http.MethodPost && r.URL.Path == "/v1/jobs") ||
		(r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results"))
	if !stream || h.aborts.Load() <= 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.aborts.Add(-1)
	h.inner.ServeHTTP(&abortingWriter{ResponseWriter: w, limit: h.lineLimit}, r)
}

type abortingWriter struct {
	http.ResponseWriter
	limit int
	lines int
}

func (w *abortingWriter) Write(p []byte) (int, error) {
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

func (w *abortingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func TestServiceChaosComposedRecovery(t *testing.T) {
	cfg := testCfg(2)
	cfg.MaxBatchJobs = 4
	d := readsData(t, 23, 28)

	// Fault-free golden: what a calm in-process engine reports.
	calm := []engine.Option{engine.WithDriverConfig(cfg), engine.WithExecutors(2)}
	want := inProcessGoldens(t, calm, []*workload.Dataset{d})[0]

	// Chaotic shard: transient faults and stragglers on every layer the
	// retry/hedge machinery covers, fallback for anything permanent-ish.
	faulty := cfg
	faulty.Faults = driver.NewFaultPlan(31, driver.FaultSpec{
		TransientRate: 0.3, StragglerRate: 0.2, StragglerDelay: 2 * time.Millisecond,
	})
	chaotic := []engine.Option{
		engine.WithDriverConfig(faulty), engine.WithExecutors(2),
		engine.WithRetry(12, 0),
		engine.WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
		engine.WithDegradedMode(engine.DegradeFallback),
	}
	svc := service.New(service.Config{Shards: 1, EngineOptions: chaotic})
	defer svc.Close()

	// Transport chaos: the first three stream connections die after four
	// lines each; the client must resume, never re-execute.
	ah := &abortingHandler{inner: svc.Handler(), lineLimit: 4}
	ah.aborts.Store(3)
	ts := httptest.NewServer(ah)
	defer ts.Close()

	c := serviceclient.New(ts.URL,
		serviceclient.WithStreamLinger(30*time.Second),
		serviceclient.WithTransportRetry(6),
		serviceclient.WithTransportBackoff(5*time.Millisecond, 50*time.Millisecond))
	job, err := c.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "chaos", got, want)
	if ah.aborts.Load() > 0 {
		t.Fatalf("only %d of 3 stream aborts fired; transport chaos never engaged", 3-ah.aborts.Load())
	}
	if st := svc.Shards()[0].Stats(); st.FaultsInjected == 0 {
		t.Fatalf("fault plan injected nothing: %+v", st)
	}
}
