package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	arrived := s.clk.Now()
	job, err := s.shards[0].Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	js := newJobState("j000001", "t", 0, func() {}, 0, len(d.Comparisons), s.cfg.WindowChunks, arrived)
	js.phases = true
	js.mu.Lock() // the pump's first appendUpdate waits here
	s.mu.Lock()
	s.jobs[js.id] = js
	s.tenantLocked(js.tenant).Live++
	s.wg.Add(1)
	s.mu.Unlock()
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
