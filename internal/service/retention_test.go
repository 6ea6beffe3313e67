// White-box retention regression test. A settled job stays in s.jobs for
// JobTTL so late readers can replay its window; it used to keep the
// engine job — every result with its CIGAR, the report — reachable for
// that long too, so resident memory grew with jobs finished per TTL.

package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestSettledJobReleasesEngineJob pumps one traced job the way
// handleSubmit registers it — the only way to hold the *engine.Job, which
// POST creates out of the test's reach — and requires that once the job
// settled the engine job is collectable while the job is still
// addressable, and that GET …/results?from=0 replays the same chunks and
// final line before and after the collection.
func TestSettledJobReleasesEngineJob(t *testing.T) {
	cfg := driver.Config{
		IPUs: 1, Model: platform.GC200, TilesPerIPU: 8, Partition: true, Traceback: true, MaxBatchJobs: 4,
		Kernel: ipukernel.Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256}, LRSplit: true},
	}
	s := New(Config{Shards: 1, EngineOptions: []engine.Option{engine.WithDriverConfig(cfg)}, JobTTL: time.Hour})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.Reads(synth.ReadsSpec{
		Name: "retention", GenomeLen: 20000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 5, MaxComparisons: 16,
	})
	ctx, cancel := context.WithCancel(context.Background())
	job, err := s.shards[0].Submit(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(job, func(*engine.Job) { close(freed) })
	js := newJobState("j000001", "t", 0, cancel, 0, len(d.Comparisons), s.cfg.WindowChunks)
	s.mu.Lock()
	s.jobs[js.id] = js
	s.tenantLocked(js.tenant).Live++
	s.wg.Add(1)
	s.mu.Unlock()
	go s.pump(js, job)

	replay := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + js.id + "/results?from=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body) // ends after the final line
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("results: status %d, err %v", resp.StatusCode, err)
		}
		// Past the header, whose batch count depends on whether the first
		// chunk had arrived when the reader attached.
		_, lines, _ := bytes.Cut(body, []byte("\n"))
		return lines
	}
	before := replay()
	if st := js.status(); !st.Done || st.Error != "" || st.Chunks < 2 {
		t.Fatalf("job did not settle cleanly over several chunks: %+v", st)
	}

	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("the settled engine job is still reachable: something retains it for JobTTL")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if s.lookup(js.id) == nil {
		t.Fatal("job no longer addressable; the test proved nothing about retention")
	}
	if after := replay(); !bytes.Equal(after, before) {
		t.Fatalf("replayed chunks and final line changed after the engine job was collected: %d bytes, were %d", len(after), len(before))
	}
}
