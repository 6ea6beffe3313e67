package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func phasesTestServer(t *testing.T) (*Server, *workload.Dataset) {
	t.Helper()
	cfg := driver.Config{
		IPUs: 1, Model: platform.GC200, TilesPerIPU: 8, Partition: true, MaxBatchJobs: 4,
		Kernel: ipukernel.Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256}, LRSplit: true},
	}
	s := New(Config{Shards: 1, EngineOptions: []engine.Option{engine.WithDriverConfig(cfg)}, JobTTL: time.Hour})
	t.Cleanup(func() { s.Close() })
	d := synth.Reads(synth.ReadsSpec{
		Name: "phases", GenomeLen: 20000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 5, MaxComparisons: 16,
	})
	return s, d
}

// registerJob submits d to the server's shard and registers the job, with
// phases asked for, as handleSubmit does, but starts no pump: the caller
// starts it when the test is ready for it.
func registerJob(t *testing.T, s *Server, d *workload.Dataset) (*jobState, *engine.Job) {
	t.Helper()
	arrived := s.clk.Now()
	job, err := s.shards[0].Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	js := newJobState(fmt.Sprintf("j%06d", s.nextID), "t", 0, func() {}, 0, len(d.Comparisons), s.cfg.WindowChunks, arrived)
	js.phases = true
	s.jobs[js.id] = js
	s.tenantLocked(js.tenant).Live++
	s.wg.Add(1)
	return js, job
}

// TestPhasesWallCoversStreamDrain: the final record's Wall runs from the
// request's arrival to the final record, also when the pump lags behind
// the engine. The test holds the pump at its first update until the
// engine has settled, and for hold after that; the pump then drains the
// buffered updates. Stream, the rest of Wall after Decode and the
// engine's segments, covers the hold, and Wall exceeds the engine's own
// by at least as much.
func TestPhasesWallCoversStreamDrain(t *testing.T) {
	const hold = 20 * time.Millisecond
	s, d := phasesTestServer(t)
	js, job := registerJob(t, s, d)
	js.mu.Lock() // the pump's first appendUpdate waits here
	go s.pump(js, job)

	if _, err := job.Wait(context.Background()); err != nil {
		js.mu.Unlock()
		t.Fatal(err)
	}
	settled := job.Phases()
	time.Sleep(hold)
	js.mu.Unlock()

	var final []byte
	for timeout := time.After(10 * time.Second); final == nil; {
		js.mu.Lock()
		done, notify := js.done, js.notify
		if done {
			final = js.final
		}
		js.mu.Unlock()
		if done {
			break
		}
		select {
		case <-notify:
		case <-timeout:
			t.Fatal("the pump did not write the final record")
		}
	}
	var env wire.Envelope
	if err := json.Unmarshal(final, &env); err != nil || env.Final == nil {
		t.Fatalf("final line %q: %v", final, err)
	}
	p := env.Final.Phases
	sum := p.Decode + p.AdmitWait + p.PlanDedup + p.PlanItems + p.PlanBatches + p.Execute + p.Complete + p.Stream
	if sum != p.Wall {
		t.Fatalf("segments sum to %v, Wall %v: %+v", sum, p.Wall, p)
	}
	if p.Stream < hold || p.Wall < settled.Wall+hold {
		t.Fatalf("Stream %v and Wall %v leave out the %v the pump drained after the engine's %v: %+v",
			p.Stream, p.Wall, hold, settled.Wall, p)
	}
}

// TestFinalRecordPhasesOnRequest: the final record carries the phases
// block only when the submission asked for it with ?phases=1, so a plain
// stream of the same job is the same bytes from run to run.
func TestFinalRecordPhasesOnRequest(t *testing.T) {
	s, d := phasesTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := wire.EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		want  bool
	}{{"", false}, {"?phases=1", true}} {
		resp, err := http.Post(ts.URL+"/v1/jobs"+c.query, wire.ContentTypeDataset, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		var env wire.Envelope
		if err := json.Unmarshal(last, &env); err != nil || env.Final == nil || env.Final.Error != "" {
			t.Fatalf("%q: last line %q is no successful final record (%v)", c.query, last, err)
		}
		if got := bytes.Contains(last, []byte(`"phases":`)); got != c.want || c.want && env.Final.Phases.Wall <= 0 {
			t.Fatalf("%q: final record %s, want phases %v", c.query, last, c.want)
		}
	}
}

// TestFirstWriteStampsTheFlush: under ?phases=1 the final record's
// FirstWrite is the request's arrival to the first chunk line flushed to
// a stream, so it is no earlier than the engine's first update (Decode +
// FirstUpdate). On a streamed job it is also no later than Wall when the
// flush comes before the final record. The service does not promise that
// order (a pump that drains a small job before the writer flushes chunk 0
// makes the record first), so the test makes it certain: it registers the
// job as handleSubmit does, hands the job's first update to the window
// itself, and starts the pump only once a stream has flushed that chunk.
// A plain stream carries no phases, FirstWrite included. A detached job's
// first chunk is flushed only when a stream reads it, after the job
// settled: its final record is made again with the stamp, which then lies
// past Wall. Each flushed job is observed once by the first-chunk
// histogram.
func TestFirstWriteStampsTheFlush(t *testing.T) {
	s, d := phasesTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := wire.EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := func(r io.Reader) []byte {
		var last []byte
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	final := func(line []byte) *wire.Final {
		var env wire.Envelope
		if err := json.Unmarshal(line, &env); err != nil || env.Final == nil || env.Final.Error != "" {
			t.Fatalf("%q is no successful final record (%v)", line, err)
		}
		return env.Final
	}
	post := func(query string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, wire.ContentTypeDataset, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	streamed, job := registerJob(t, s, d)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + streamed.id + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	streamed.appendUpdate(<-job.Results())
	for timeout := time.After(10 * time.Second); ; {
		streamed.mu.Lock()
		written := streamed.written
		streamed.mu.Unlock()
		if written {
			break
		}
		select {
		case <-timeout:
			t.Fatal("no stream flushed the first chunk")
		case <-time.After(100 * time.Microsecond):
		}
	}
	go s.pump(streamed, job)
	p := final(lastLine(resp.Body)).Phases
	resp.Body.Close()
	if p.FirstWrite <= 0 || p.FirstWrite < p.Decode+p.FirstUpdate || p.FirstWrite > p.Wall {
		t.Errorf("streamed job: FirstWrite %v, want in [Decode + FirstUpdate, Wall] = [%v, %v]",
			p.FirstWrite, p.Decode+p.FirstUpdate, p.Wall)
	}

	resp = post("")
	last := lastLine(resp.Body)
	resp.Body.Close()
	if final(last); bytes.Contains(last, []byte("firstWriteNs")) || bytes.Contains(last, []byte(`"phases"`)) {
		t.Errorf("plain stream's final record %s carries phases", last)
	}

	resp = post("?phases=1&stream=0")
	var hdr wire.Header
	err = json.NewDecoder(resp.Body).Decode(&hdr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	js := s.lookup(hdr.Job)
	for {
		js.mu.Lock()
		done, notify := js.done, js.notify
		js.mu.Unlock()
		if done {
			break
		}
		<-notify
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + hdr.Job + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	p = final(lastLine(resp.Body)).Phases
	resp.Body.Close()
	if p.FirstWrite <= p.Wall {
		t.Errorf("detached job read after it settled: FirstWrite %v, want past Wall %v", p.FirstWrite, p.Wall)
	}
	f := s.firstChunk.Family("first_chunk_seconds", "")
	if n := f.Samples[len(f.Samples)-1].Value; n != 3 {
		t.Errorf("first-chunk histogram observed %v jobs, want 3", n)
	}
}
