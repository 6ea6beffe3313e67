package serviceclient_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/serviceclient"
)

// TestServiceClientPhasesRoundTrip: the phases block of the server's
// final record reaches RemoteJob.Phases unchanged — the engine's
// segments with the service's decode and stream — and its segments sum
// to its Wall.
func TestServiceClientPhasesRoundTrip(t *testing.T) {
	cfg := testCfg()
	cfg.MaxBatchJobs = 4
	opts := []engine.Option{engine.WithDriverConfig(cfg), engine.WithExecutors(2)}
	d := testData(t, 43, 24)
	svc := service.New(service.Config{Shards: 1, EngineOptions: opts})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job, err := serviceclient.New(ts.URL, serviceclient.WithPhases()).Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := job.Phases()

	// The final record as the server retains it, replayed from the start.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var env wire.Envelope
	if err := json.Unmarshal(last, &env); err != nil || env.Final == nil || !bytes.Contains(last, []byte(`"phases":{`)) {
		t.Fatalf("last line %q is no final record with phases (%v)", last, err)
	}
	if want := env.Final.Phases; got != want {
		t.Fatalf("RemoteJob.Phases() = %+v, the final record says %+v", got, want)
	}
	sum := got.Decode + got.AdmitWait + got.PlanDedup + got.PlanItems + got.PlanBatches +
		got.Execute + got.Complete + got.Stream
	if sum != got.Wall || got.Decode <= 0 || got.Execute <= 0 || got.FirstUpdate <= 0 {
		t.Fatalf("phases %+v: segments sum to %v", got, sum)
	}
}
