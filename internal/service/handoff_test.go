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
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

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
	svc, ts := serve(t, executorsConfig())
	post := warmExecutorsJobs(t, ts)
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

// executorsConfig is a one-shard service of two executors over the
// benchmark's device and batch cap.
func executorsConfig() service.Config {
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	return service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithExecutors(2),
	}}
}

// warmExecutorsJobs returns a func that POSTs a job of noisy long reads
// to ts, ≈ 60 batches of ≈ 1.5 ms under executorsConfig, and returns its
// streaming response. It runs one job to its end first, so the
// connection, devices and workspaces are warm for the next.
func warmExecutorsJobs(t *testing.T, ts *httptest.Server) func() *http.Response {
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
	warm := post()
	if fin := drainStream(t, warm.Body); fin.Error != "" {
		t.Fatal(fin.Error)
	}
	warm.Body.Close()
	return post
}

// flushClock is a ResponseWriter that notes when each chunk line is
// flushed, before the bytes go to the socket.
type flushClock struct {
	http.ResponseWriter
	pending int
	at      []time.Time // at[i]: chunk line i's flush
}

// isChunk reports whether an NDJSON stream line is a chunk line.
func isChunk(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"chunk"`)) }

func (w *flushClock) Write(p []byte) (int, error) {
	if isChunk(p) {
		w.pending++
	}
	return w.ResponseWriter.Write(p)
}

func (w *flushClock) Flush() {
	now := time.Now()
	for ; w.pending > 0; w.pending-- {
		w.at = append(w.at, now)
	}
	w.ResponseWriter.(http.Flusher).Flush()
}

// TestFirstChunkReachesReaderAfterFlush: the first chunk line, once
// flushed, reaches the HTTP client about a tile later. The line waits in
// the client's socket until some processor polls the network, which the
// runtime does when a processor has no goroutine to run, or from sysmon
// every 10 ms; with every processor computing tiles, the tile worker that
// steps aside after the first flush (Engine.PauseWorker) makes one idle.
// The hop's control is the same wait for the job's later chunk lines
// that the client was blocked on, which no pause follows: on the same
// host, at the same moment, in the same jobs. Over 15 jobs the median
// first-line wait must be under 0.4× the later lines' median, in one of
// two rounds. On a 2-CPU host at -cpu 2 the parent of the commit that
// added the pause read 0.27–1.68× (2 of 26 rounds under 0.4×) and failed
// 8 runs of 8, and this tree read 0.15–0.29×.
//
// The ratio is checked only where it was measured: at -cpu 2 named on the
// command line, as the CI hand-off step and the mutation table do, on a
// host with two CPUs or more, and not under -race. Elsewhere the test
// skips. At -cpu 1 no processor can go idle; at -cpu 4 no reading was
// taken; under -race a tile outlasts the wait; and in a plain
// `go test ./...` the other packages' test binaries run beside this one,
// so the OS scheduler, not the runtime's network poll, sets the wait.
func TestFirstChunkReachesReaderAfterFlush(t *testing.T) {
	if flag.Lookup("test.cpu").Value.String() == "" || runtime.GOMAXPROCS(0) != 2 || runtime.NumCPU() < 2 || raceEnabled {
		t.Skip("checks a wall-clock ratio only at -cpu 2 named on the command line, on 2 or more CPUs, without -race")
	}
	const rounds, jobs, bound = 2, 15, 0.4
	svc := service.New(executorsConfig())
	defer svc.Close()
	flushed := make(chan []time.Time, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc := &flushClock{ResponseWriter: w}
		svc.Handler().ServeHTTP(fc, r)
		if r.Method == http.MethodPost {
			flushed <- fc.at
		}
	}))
	defer ts.Close()
	post := warmExecutorsJobs(t, ts)
	<-flushed // the warm job's

	check := func() bool {
		var first, later []time.Duration
		for range jobs {
			resp := post()
			br := bufio.NewReaderSize(resp.Body, 1<<20)
			if _, err := br.ReadBytes('\n'); err != nil { // header
				t.Fatal(err)
			}
			var read []time.Time
			for {
				line, err := br.ReadBytes('\n')
				if err != nil {
					t.Fatal(err)
				}
				if !isChunk(line) {
					break
				}
				read = append(read, time.Now())
			}
			resp.Body.Close()
			at := <-flushed
			if len(at) != len(read) {
				t.Fatalf("%d chunk lines flushed, %d read", len(at), len(read))
			}
			first = append(first, read[0].Sub(at[0]))
			for i := 1; i < len(at); i++ {
				// The first line of a flush made after the previous
				// line was read: the client was waiting for it.
				if at[i] != at[i-1] && at[i].After(read[i-1]) {
					later = append(later, read[i].Sub(at[i]))
				}
			}
		}
		slices.Sort(first)
		slices.Sort(later)
		f, l := first[len(first)/2], later[len(later)/2]
		t.Logf("median wait from flush to read: first chunk line %v, %d later lines %v (%.2f×)", f, len(later), l, float64(f)/float64(l))
		return float64(f) <= bound*float64(l)
	}
	for range rounds {
		if check() {
			return
		}
	}
	t.Errorf("the first chunk line waited over %.1f× the later lines' wait for its reader in each of %d rounds", bound, rounds)
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
