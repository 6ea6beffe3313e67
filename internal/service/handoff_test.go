// The service-level twin of engine's TestFirstUpdateNotStarvedByExecutors:
// between an executor's send and the client's read sit the pump, the
// stream handler and the loopback socket, each a goroutine that needs a
// processor the CPU-bound executors would otherwise keep for a 10 ms
// quantum per hop.

package service_test

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestFirstChunkNotStarvedByExecutors: the first chunk line reaches an
// HTTP client before half the schedule has been delivered. Executors = 2;
// the starved configuration is -cpu 2 (or a 2-CPU host), where the parent
// of the commit that made executors yield has most of the schedule done by
// then; with a free processor (-cpu 4) or one shared by everything
// (-cpu 1) the same bound holds. Counts only — no sleeps, no clocks.
func TestFirstChunkNotStarvedByExecutors(t *testing.T) {
	d := synth.Reads(synth.ReadsSpec{
		Name: "handoff", GenomeLen: 36000, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 225, Seed: 23, MaxComparisons: 3800,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's device and batch cap: ≈ 60 batches of ≈ 1.5 ms.
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	svc := service.New(service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithExecutors(2),
	}})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func() *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", wire.ContentTypeDataset, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: %s", resp.Status)
		}
		return resp
	}
	// One job first, drained: the connection, devices and workspaces are
	// warm when the measured job starts.
	warm := post()
	if fin := drainStream(t, warm.Body); fin.Error != "" {
		t.Fatal(fin.Error)
	}
	warm.Body.Close()
	before := svc.Shards()[0].Stats().BatchesDone

	resp := post()
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	if _, err := br.ReadBytes('\n'); err != nil { // header
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	delivered := svc.Shards()[0].Stats().BatchesDone - before
	if err != nil {
		t.Fatal(err)
	}
	ch, _, ok := wire.ParseChunkLine(line)
	if !ok {
		t.Fatalf("second stream line is not a chunk: %.80s", line)
	}
	if ch.Batches < 32 {
		t.Fatalf("schedule has %d batches; the test needs ≥ 32", ch.Batches)
	}
	if delivered > int64(ch.Batches/2) {
		t.Errorf("the first chunk reached the client with %d of %d batches already delivered; want under half", delivered, ch.Batches)
	}
	if fin := drainStream(t, br); fin.Error != "" {
		t.Fatal(fin.Error)
	}
}
