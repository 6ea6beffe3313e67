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

	"github.com/sram-align/xdropipu/internal/alignment"
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

// settleRetained registers a job the way handleSubmit does, gives it one
// real chunk and a final line, and queues it for retention claiming size
// bytes (0 = what it really holds; the budget is tens of MiB, so the tests
// claim sizes instead of allocating them). It returns only the id: a
// *jobState held by the test would defeat the reachability check.
func settleRetained(s *Server, id string, size int) string {
	js := newJobState(id, "t", 0, func() {}, 0, 1, s.cfg.WindowChunks)
	js.appendUpdate(engine.Update{Batches: 1, Results: []ipukernel.AlignOut{{GlobalID: 0, Score: 42}}})
	held := js.finish(&driver.Report{}, nil)
	if size == 0 {
		size = held
	}
	s.mu.Lock()
	s.jobs[id] = js
	s.retainLocked(js, size)
	s.mu.Unlock()
	return id
}

func retentionState(s *Server) (ids []string, snap JobsSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.retained {
		ids = append(ids, r.js.id)
	}
	return ids, s.jobsSnapshotLocked()
}

// TestServiceRetentionByteBudget: settled jobs leave oldest-first once
// their windows total more than maxRetainedBytes, the newest always stays
// — alone over the budget if it must — and an evicted id is a 404 like an
// expired one, counted where an operator can see it.
func TestServiceRetentionByteBudget(t *testing.T) {
	s := New(Config{JobTTL: time.Hour})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	const third = maxRetainedBytes/3 + 1

	settleRetained(s, "a", third)
	settleRetained(s, "b", third)
	if ids, snap := retentionState(s); len(ids) != 2 || snap.EvictedJobs != 0 || snap.RetainedBytes != 2*third {
		t.Fatalf("under budget: retained %v, %+v", ids, snap)
	}
	settleRetained(s, "c", third)
	ids, snap := retentionState(s)
	if len(ids) != 2 || ids[0] != "b" || ids[1] != "c" || snap.EvictedJobs != 1 || snap.RetainedBytes != 2*third || snap.TrackedJobs != 2 {
		t.Fatalf("over budget the oldest goes first: retained %v, %+v", ids, snap)
	}
	if code, _ := get("/v1/jobs/a/results?from=0"); code != http.StatusNotFound {
		t.Fatalf("evicted job answered %d, want 404", code)
	}
	if code, body := get("/v1/jobs/b/results?from=0"); code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"score":42`)) {
		t.Fatalf("retained job does not replay: %d %q", code, body)
	}

	// One job larger than the whole budget evicts everything older and
	// still replays until its TTL.
	settleRetained(s, "huge", 2*maxRetainedBytes)
	ids, snap = retentionState(s)
	if len(ids) != 1 || ids[0] != "huge" || snap.EvictedJobs != 3 || snap.RetainedBytes != 2*maxRetainedBytes {
		t.Fatalf("oversized job: retained %v, %+v", ids, snap)
	}
	if code, body := get("/v1/jobs/huge/results?from=0"); code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"final"`)) {
		t.Fatalf("the newest settled job must stay replayable: %d %q", code, body)
	}
	// The next settle, however small, finds the budget still blown.
	settleRetained(s, "next", 0)
	if ids, snap := retentionState(s); len(ids) != 1 || ids[0] != "next" || snap.EvictedJobs != 4 {
		t.Fatalf("after the oversized job: retained %v, %+v", ids, snap)
	}

	_, stats := get("/v1/stats")
	_, prom := get("/v1/metrics")
	for _, want := range []string{`"evictedJobs":4`, `"trackedJobs":1`} {
		if !bytes.Contains([]byte(stats), []byte(want)) {
			t.Errorf("/v1/stats lacks %s: %s", want, stats)
		}
	}
	if !bytes.Contains([]byte(prom), []byte("\nxdropipu_service_jobs_evicted_total 4\n")) ||
		!bytes.Contains([]byte(prom), []byte("\nxdropipu_service_retained_replay_bytes ")) {
		t.Errorf("/v1/metrics lacks the retention rows:\n%s", prom)
	}
}

// TestServiceRetentionTTL: with the byte budget idle, a settled job is
// addressable until JobTTL and gone after it, in settle order, and expiry
// is not counted as eviction.
func TestServiceRetentionTTL(t *testing.T) {
	s := New(Config{JobTTL: 150 * time.Millisecond})
	defer s.Close()
	settleRetained(s, "first", 0)
	if s.lookup("first") == nil {
		t.Fatal("settled job not addressable inside its TTL")
	}
	time.Sleep(60 * time.Millisecond)
	settleRetained(s, "second", 0)
	for deadline := time.Now().Add(10 * time.Second); s.lookup("first") != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job still addressable long after JobTTL")
		}
	}
	if s.lookup("second") == nil {
		t.Fatal("a job settled later expired with the earlier one")
	}
	for deadline := time.Now().Add(10 * time.Second); s.lookup("second") != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timer was not re-armed for the next job in the queue")
		}
	}
	if ids, snap := retentionState(s); len(ids) != 0 || snap != (JobsSnapshot{}) {
		t.Fatalf("after expiry: retained %v, %+v", ids, snap)
	}
}

// TestServiceRetentionEvictedJobIsCollectable: eviction must make the
// job's window garbage at once. Reslicing the queue past the head is not
// enough — the backing array still points at it until the slot is zeroed
// (the prototype's live heap saw-toothed 93 → 130 MB on exactly that).
func TestServiceRetentionEvictedJobIsCollectable(t *testing.T) {
	s := New(Config{JobTTL: time.Hour})
	defer s.Close()
	freed := make(chan struct{})
	func() {
		id := settleRetained(s, "victim", maxRetainedBytes-1)
		js := s.lookup(id)
		runtime.SetFinalizer(&js.window[0][0], func(*byte) { close(freed) })
	}()
	settleRetained(s, "evictor", 2)
	if s.lookup("victim") != nil || s.lookup("evictor") == nil {
		t.Fatal("setup: the second settle should have evicted the first")
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("an evicted job's window is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestAppendUpdateAllocatesTheLineOnce pins what a chunk costs to encode:
// once the scratch buffer is warm, one exact-length copy of the line plus
// small change. Appending into a fresh buffer and keeping the result costs
// several times the line in growth steps and retains the slack — on
// CIGAR-bearing lines that was +13 % allocated per traced job.
func TestAppendUpdateAllocatesTheLineOnce(t *testing.T) {
	outs := make([]ipukernel.AlignOut, 64)
	for i := range outs {
		var b alignment.Builder
		for r := 0; r < 40; r++ {
			b.Append(alignment.OpMatch, 20+r+i)
			b.Append(alignment.OpMismatch, 1)
		}
		outs[i] = ipukernel.AlignOut{GlobalID: i, Score: 900 + i, EndH: 1500, EndV: 1490, Cells: 48000, Cigar: b.Cigar(), TraceBytes: 12000}
	}
	u := engine.Update{Batch: 3, Batches: 21, Seconds: 1.25e-4, Results: outs}
	js := newJobState("j", "t", 0, func() {}, 0, len(outs), 4)
	js.appendUpdate(u)
	line := len(js.window[0])

	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { js.appendUpdate(u) })
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if limit := 1.15*float64(line) + 1024; perRun > limit {
		t.Errorf("appendUpdate allocates %.0f B per %d B line, want ≤ %.0f", perRun, line, limit)
	}
	if allocs > 4 { // the copy, the notify channel, the trimmed window
		t.Errorf("appendUpdate makes %.0f allocations per chunk, want ≤ 4", allocs)
	}
	for _, l := range js.window {
		if !bytes.Equal(l[bytes.Index(l, []byte(`"batch"`)):], js.window[0][bytes.Index(js.window[0], []byte(`"batch"`)):]) {
			t.Fatal("scratch reuse corrupted a retained line")
		}
	}
}
