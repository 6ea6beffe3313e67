// The service-level twin of engine's TestFirstUpdateNotStarvedByExecutors:
// between an executor's send and the client's read sit the pump, the
// stream handler and the loopback socket, each a goroutine that needs a
// processor the CPU-bound executors would otherwise keep for a 10 ms
// quantum per hop.

package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
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
	payload := encode(t, d)
	// The benchmark's device and batch cap: ≈ 60 batches of ≈ 1.5 ms.
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	svc, ts := serve(t, service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithExecutors(2),
	}})

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

// pipeResponse is a streaming http.ResponseWriter over an io.Pipe: each
// Write is shown to wrote, then waits until the reading goroutine has
// taken its bytes.
type pipeResponse struct {
	*io.PipeWriter
	header http.Header
	wrote  func(p []byte)
}

func (r pipeResponse) Header() http.Header { return r.header }
func (r pipeResponse) WriteHeader(int)     {}
func (r pipeResponse) Flush()              {}
func (r pipeResponse) Write(p []byte) (int, error) {
	r.wrote(p)
	return r.PipeWriter.Write(p)
}

// TestFirstChunkNotStarvedByPump: the stream writer writes a cache-served
// job's first chunk line while the pump has encoded little of the rest.
// The engine queues all 40 of this job's updates at once, and the pump,
// which never waits on them, encodes one after another; the writer each
// append wakes needs the processor the pump keeps. At -cpu 1 the parent of
// the commit that made the pump yield after each append had encoded all
// 40 chunks when the writer wrote the first, in every job. The count is
// the chunks the job's status reports encoded as the first chunk line is
// written; the response is a pipe, so no socket stands between the writer
// and the test. At -cpu 2 and 4 the writer can run beside the pump, and
// on a 2-CPU host a GC worker or a neighbour then sometimes keeps its
// thread off the CPU for a millisecond or two, which no yield can help:
// so the bound must hold in two of five jobs, at every -cpu.
func TestFirstChunkNotStarvedByPump(t *testing.T) {
	const jobs, need, allowed = 5, 2, 4
	base := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 500, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 41})
	cmps := make([]workload.Comparison, 0, 40*len(base.Comparisons))
	for range 40 {
		cmps = append(cmps, base.Comparisons...)
	}
	payload := encode(t, base.WithComparisons(cmps))
	cfg := driver.Config{IPUs: 1, Partition: true, Kernel: ipukernel.Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: 128}}}
	svc := service.New(service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithResultCache(1 << 12),
	}})
	defer svc.Close()
	submit := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(payload))
		req.Header.Set("Content-Type", wire.ContentTypeDataset)
		return req
	}
	cold := httptest.NewRecorder()
	svc.Handler().ServeHTTP(cold, submit())
	if cold.Code != http.StatusOK {
		t.Fatalf("cold submit: %d %s", cold.Code, cold.Body)
	}

	// warm streams one warm job and returns how many chunks the pump had
	// encoded when the first was written. The writer's first Write is the
	// header, its second the first chunk line: that one reads the job's
	// status before handing the line over.
	warm := func() int {
		var job string
		encoded := -1
		wrote := func(p []byte) {
			if job == "" {
				var env wire.Envelope
				if json.Unmarshal(p, &env) == nil && env.Header != nil {
					job = env.Header.Job
				}
				return
			}
			if encoded < 0 {
				rec := httptest.NewRecorder()
				svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job, nil))
				var st service.JobStatus
				if json.Unmarshal(rec.Body.Bytes(), &st) == nil {
					encoded = st.Chunks
				}
			}
		}
		pr, pw := io.Pipe()
		defer pr.Close()
		go func() {
			svc.Handler().ServeHTTP(pipeResponse{pw, http.Header{}, wrote}, submit())
			pw.Close()
		}()
		br := bufio.NewReaderSize(pr, 1<<20)
		if _, err := br.ReadBytes('\n'); err != nil { // header
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		ch, _, ok := wire.ParseChunkLine(line)
		if !ok || ch.Seq != 0 || ch.Batch != -1 || encoded < 0 {
			t.Fatalf("second stream line (job %q, status read %v) is not the first cache-served chunk: %.80s", job, encoded >= 0, line)
		}
		if fin := drainStream(t, br); fin.Error != "" || fin.Report.Batches != 0 {
			t.Fatalf("warm job: %+v", fin)
		}
		return encoded
	}
	var counts []int
	within := 0
	for range jobs {
		n := warm()
		counts = append(counts, n)
		if n <= allowed {
			within++
		}
	}
	t.Logf("chunks encoded at the first write, per job: %v", counts)
	if within < need {
		t.Errorf("the pump had encoded %v of 40 chunks when the first was written; want ≤ %d in %d of %d jobs",
			counts, allowed, need, jobs)
	}
}
