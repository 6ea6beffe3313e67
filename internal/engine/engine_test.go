package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testCfg(ipus int) driver.Config {
	return driver.Config{
		IPUs:        ipus,
		Model:       platform.GC200,
		TilesPerIPU: 8,
		Partition:   true,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
	}
}

func readsData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "eng", GenomeLen: 40000, Coverage: 8, MeanReadLen: 1800, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// reportsEqual compares two reports bit for bit.
func reportsEqual(t *testing.T, label string, got, want *driver.Report) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine report differs from driver.Run\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestEngineConcurrentClients: many clients submitting distinct datasets
// concurrently each get exactly the report driver.Run would give them,
// whatever interleaving the fair-share scheduler picks.
func TestEngineConcurrentClients(t *testing.T) {
	cfg := testCfg(2)
	const clients = 6
	datasets := make([]*workload.Dataset, clients)
	wants := make([]*driver.Report, clients)
	for i := range datasets {
		datasets[i] = readsData(t, int64(10+i), 14+2*i)
		var err error
		wants[i], err = driver.Run(datasets[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	e := New(WithDriverConfig(cfg), WithQueueDepth(3), WithExecutors(4))
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := e.Submit(context.Background(), datasets[i])
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			got, err := job.Wait(context.Background())
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(got, wants[i]) {
				t.Errorf("client %d: report differs from driver.Run", i)
			}
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.JobsDone != clients || st.JobsLive != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
}

// TestEngineStreaming: batch updates arrive as execution proceeds, cover
// every comparison exactly once, and agree with the final report.
func TestEngineStreaming(t *testing.T) {
	d := readsData(t, 5, 30)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4 // force several batches so streaming is visible
	e := New(WithDriverConfig(cfg))
	defer e.Close()
	job, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]ipukernel.AlignOut)
	var batches, total int
	for u := range job.Results() {
		batches++
		if total == 0 {
			total = u.Batches
		} else if u.Batches != total {
			t.Errorf("update Batches changed: %d then %d", total, u.Batches)
		}
		for _, o := range u.Results {
			if _, dup := seen[o.GlobalID]; dup {
				t.Errorf("comparison %d streamed twice", o.GlobalID)
			}
			seen[o.GlobalID] = o
		}
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if batches != rep.Batches {
		t.Errorf("streamed %d batches, report says %d", batches, rep.Batches)
	}
	if len(seen) != len(d.Comparisons) {
		t.Fatalf("streamed %d comparisons of %d", len(seen), len(d.Comparisons))
	}
	for id, o := range seen {
		if rep.Results[id] != o {
			t.Errorf("comparison %d: streamed result differs from report", id)
		}
	}
}

// TestResultsAfterCompletion: opening the stream after the job settled
// replays every batch, so late consumers see the full run.
func TestResultsAfterCompletion(t *testing.T) {
	d := readsData(t, 6, 24)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4
	e := New(WithDriverConfig(cfg))
	defer e.Close()
	job, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	batches := 0
	for u := range job.Results() {
		batches++
		seen += len(u.Results)
		// Mutating the streamed copy must not corrupt the report.
		for k := range u.Results {
			u.Results[k].Score = -999
		}
	}
	if batches != rep.Batches || seen != len(d.Comparisons) {
		t.Fatalf("replayed %d batches/%d results, want %d/%d",
			batches, seen, rep.Batches, len(d.Comparisons))
	}
	rep2, _ := job.Wait(context.Background())
	for _, r := range rep2.Results {
		if r.Score == -999 {
			t.Fatal("stream mutation leaked into the report")
		}
	}
}

// TestSubmitAfterClose: a closed engine refuses new work.
func TestSubmitAfterClose(t *testing.T) {
	e := New(WithDriverConfig(testCfg(1)))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), readsData(t, 1, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitCancelledContext: a dead context never enqueues.
func TestSubmitCancelledContext(t *testing.T) {
	e := New(WithDriverConfig(testCfg(1)))
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, readsData(t, 1, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestCancelDoesNotPoisonEngine: cancelling one submission settles that
// job with the context's error (or lets it finish if it already raced to
// completion) and leaves every other client's results untouched.
func TestCancelDoesNotPoisonEngine(t *testing.T) {
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 2
	e := New(WithDriverConfig(cfg), WithExecutors(1))
	defer e.Close()

	big := readsData(t, 7, 40)
	small := readsData(t, 8, 10)
	want, err := driver.Run(small, cfg)
	if err != nil {
		t.Fatal(err)
	}

	jobA, err := e.Submit(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	jobB, err := e.Submit(ctxB, big)
	if err != nil {
		t.Fatal(err)
	}
	cancelB()
	jobC, err := e.Submit(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := jobA.Wait(context.Background()); err != nil {
		t.Errorf("job A: %v", err)
	}
	if rep, err := jobB.Wait(context.Background()); err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("job B: %v, want context.Canceled", err)
		}
	} else if rep == nil {
		t.Error("job B finished without report or error")
	}
	got, err := jobC.Wait(context.Background())
	if err != nil {
		t.Fatalf("job C: %v", err)
	}
	reportsEqual(t, "post-cancel client", got, want)

	// Settled jobs (cancelled ones included) must leave the scheduler
	// list, or an idle engine pins their datasets forever.
	e.mu.Lock()
	if n := len(e.active); n != 0 {
		t.Errorf("%d jobs still active after all settled", n)
	}
	if e.live != 0 {
		t.Errorf("live = %d after all settled", e.live)
	}
	e.mu.Unlock()
}

// TestQueueBackpressure: with a full queue, Submit blocks and obeys its
// context's deadline.
func TestQueueBackpressure(t *testing.T) {
	cfg := testCfg(1)
	e := New(WithDriverConfig(cfg), WithQueueDepth(1), WithExecutors(1))
	defer e.Close()
	if _, err := e.Submit(context.Background(), readsData(t, 9, 40)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := e.Submit(ctx, readsData(t, 9, 4))
	// Either the first job drained in time (slot free, submit succeeds)
	// or the deadline fired while blocked on admission.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit under backpressure = %v", err)
	}
}

// TestEngineSubmissionOrderIrrelevant: the same dataset submitted amid
// different companion workloads and orders yields the same report.
func TestEngineSubmissionOrderIrrelevant(t *testing.T) {
	cfg := testCfg(2)
	probe := readsData(t, 21, 20)
	other := readsData(t, 22, 24)
	want, err := driver.Run(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][2]*workload.Dataset{{probe, other}, {other, probe}} {
		e := New(WithDriverConfig(cfg), WithExecutors(2))
		j0, err := e.Submit(context.Background(), order[0])
		if err != nil {
			t.Fatal(err)
		}
		j1, err := e.Submit(context.Background(), order[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []*Job{j0, j1} {
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		probeJob := j0
		if order[0] != probe {
			probeJob = j1
		}
		got, _ := probeJob.Wait(context.Background())
		reportsEqual(t, "order variant", got, want)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineEmptyDataset: a dataset with no comparisons settles
// immediately with an empty report and a closed stream.
func TestEngineEmptyDataset(t *testing.T) {
	e := New(WithDriverConfig(testCfg(1)))
	defer e.Close()
	job, err := e.Submit(context.Background(), workload.MustPack("empty", nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	for range job.Results() {
		t.Error("empty dataset streamed an update")
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 || rep.Batches != 0 {
		t.Errorf("empty report: %+v", rep)
	}
}

// TestEngineBuildError: an invalid dataset fails its own job only.
func TestEngineBuildError(t *testing.T) {
	e := New(WithDriverConfig(testCfg(1)))
	defer e.Close()
	bad := workload.MustPack("", [][]byte{make([]byte, 50)}, nil, false).
		WithComparisons([]workload.Comparison{{H: 0, V: 3, SeedLen: 10}})
	job, err := e.Submit(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err == nil {
		t.Fatal("invalid dataset produced a report")
	}
	// The engine keeps serving.
	good := readsData(t, 2, 8)
	job2, err := e.Submit(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWaitContextBoundsOnlyTheWait: a cancelled Wait leaves the job
// running to completion.
func TestWaitContextBoundsOnlyTheWait(t *testing.T) {
	// Every batch straggles, so the job cannot settle before the dead-ctx
	// Wait below: with both channels ready, Wait's select may pick either,
	// and on a loaded host this 5 ms job used to finish first.
	slow := driver.NewFaultPlan(1, driver.FaultSpec{StragglerRate: 1, StragglerDelay: 200 * time.Millisecond})
	e := New(WithDriverConfig(withFaults(testCfg(1), slow)))
	defer e.Close()
	job, err := e.Submit(context.Background(), readsData(t, 4, 12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with dead ctx = %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job should still complete: %v", err)
	}
}

// TestStatsAddCoversEveryField: the service totals its shards through
// Stats.Add, so a Stats field it forgets reads zero in /v1/stats totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(i + 1))
	}
	var zero Stats
	zero.Add(st)
	if zero != st {
		t.Fatalf("Add into a zero value dropped a field:\n got %+v\nwant %+v", zero, st)
	}
	st.Add(st)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("%s: st.Add(st) = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
