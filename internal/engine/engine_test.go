package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
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

// submit submits d to e, failing the test on an error.
func submit(t testing.TB, e *Engine, d *workload.Dataset) *Job {
	t.Helper()
	job, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// wait is job's report, failing the test on an error.
func wait(t testing.TB, job *Job) *driver.Report {
	t.Helper()
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runRef is driver.Run's report of d under cfg, failing the test on an
// error.
func runRef(t testing.TB, d *workload.Dataset, cfg driver.Config) *driver.Report {
	t.Helper()
	ref, err := driver.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref
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
	job := submit(t, e, d)
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
	rep := wait(t, job)
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
	job := submit(t, e, d)
	rep := wait(t, job)
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

// TestResultsLiveMutation: a consumer that opens the stream before the
// first batch and overwrites every result as it arrives never reaches the
// report, whichever way a batch lands — the first delivered batch (which
// streams a copy, the report's array not yet allocated), the later ones
// (which stream the kernel's own array), retried batches, a straggler
// beaten by its hedge near the deadline, and the Failed placeholders of
// permanently faulted batches under DegradePartial. Every streamed result
// is checked before it is overwritten, and the report must equal
// driver.Run's results with the placeholders in place. Run it with -race
// and at 1, 2 and 4 processors: the hand-off is a data race if the
// report's copy is not taken before a batch is published.
func TestResultsLiveMutation(t *testing.T) {
	d := readsData(t, 38, 30)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 3
	ref := runRef(t, d, cfg)
	// The seed draws transient faults (retried), permanent ones
	// (placeholders) and one straggler whose hedge attempt runs clean.
	plan := driver.NewFaultPlan(1, driver.FaultSpec{
		TransientRate: 0.3, PermanentRate: 0.15,
		StragglerRate: 0.1, StragglerDelay: 1600 * time.Millisecond,
	})
	probe := probePlan(t, d, cfg)
	want := slices.Clone(ref.Results)
	var transients, placeholders, stragglers int
	for bi := 0; bi < probe.Batches(); bi++ {
		if plan.Kind(bi, 0) == driver.FaultPermanent {
			for _, o := range probe.FailedBatchResult(bi).Out {
				want[o.GlobalID] = o
				placeholders++
			}
			continue
		}
		a := 0
		for ; plan.Kind(bi, a) == driver.FaultTransient; a++ {
			transients++
		}
		if plan.Kind(bi, a) == driver.FaultStraggler {
			stragglers++
			if plan.Kind(bi, a+1) != driver.FaultNone {
				t.Fatalf("batch %d's hedge attempt draws a fault", bi)
			}
		}
	}
	if transients == 0 || placeholders == 0 || stragglers != 1 {
		t.Fatalf("seed draws %d transient faults, %d placeholders and %d stragglers; want some, some and one",
			transients, placeholders, stragglers)
	}

	clk := new(clock.Manual)
	e := New(WithDriverConfig(withFaults(cfg, plan)), WithExecutors(4),
		WithRetry(12, 0), WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
		WithJobDeadline(time.Second), WithDegradedMode(DegradePartial), withClock(clk))
	defer e.Close()
	job := submit(t, e, d)
	// The clock fires each backoff timer (due within 3 ms) once it is
	// armed, and opens the hedge window, 0.8 s in, once every batch but the
	// straggler has landed; the straggler wakes at 1.6 s.
	var landed atomic.Int64
	go func() {
		for landed.Load() < int64(probe.Batches()-1) {
			select {
			case <-job.doneCh:
				return
			default:
			}
			// Timers past the job's two alarms and the stragglers' waits
			// (counted before they arm) are backoffs.
			pending := clk.Advance(0)
			if _, _, s := plan.Injected(); pending > 2+int(s) {
				clk.Advance(3 * time.Millisecond)
			}
			time.Sleep(50 * time.Microsecond)
		}
		clk.Advance(800 * time.Millisecond)
	}()
	seen := make([]bool, len(d.Comparisons))
	for u := range job.Results() {
		landed.Add(1)
		for k, o := range u.Results {
			if seen[o.GlobalID] {
				t.Fatalf("comparison %d streamed twice", o.GlobalID)
			}
			seen[o.GlobalID] = true
			if !reflect.DeepEqual(o, want[o.GlobalID]) {
				t.Fatalf("batch %d streamed comparison %d as %+v, want %+v", u.Batch, o.GlobalID, o, want[o.GlobalID])
			}
			u.Results[k].Score = -999
		}
	}
	rep := wait(t, job)
	if slices.Contains(seen, false) {
		t.Fatal("the stream missed a comparison")
	}
	if !reflect.DeepEqual(rep.Results, want) {
		t.Fatal("the report's results differ from driver.Run's with the placeholders in place")
	}
	if rep.PartialFailures != placeholders {
		t.Errorf("PartialFailures = %d, want %d", rep.PartialFailures, placeholders)
	}
	st := e.Stats()
	if st.Retries != int64(transients) || st.Hedges != 1 || st.DeadlineExceeded != 0 {
		t.Errorf("Retries %d, Hedges %d, DeadlineExceeded %d; want %d, 1, 0",
			st.Retries, st.Hedges, st.DeadlineExceeded, transients)
	}
	clk.Advance(time.Second) // the straggler's first execution returns, and drops
}

// TestResultsOpenedMidLandingWaits: a stream opened while a batch is
// between its landing and its publish waits for that landing to finish.
// The first delivered batch lands before the report's array exists, so
// its merge comes after the publish; a replay that did not wait would
// hand the consumer the kernel's own array while the merge has yet to
// read it, and an overwrite would reach the report. A lab holds the first
// landing open, one event in, while Results is called from another
// goroutine.
func TestResultsOpenedMidLandingWaits(t *testing.T) {
	d := readsData(t, 38, 30)
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 3
	ref := runRef(t, d, cfg)
	l := newLab(t, newLabScenario(t, d, cfg))
	for _, m := range []moveKind{mIssue, mCompute, mReturn} {
		l.apply(move{m, 0}, true)
	}
	bi := l.landers[0].bi
	opened := make(chan (<-chan Update), 1)
	go func() { opened <- l.j.Results() }()
	var updates <-chan Update
	seen := 0
	overwrite := func(u Update) {
		seen += len(u.Results)
		for k := range u.Results {
			u.Results[k].Score = -999
		}
	}
	select {
	case updates = <-opened:
		t.Errorf("Results returned while batch %d was still landing", bi)
		for len(updates) > 0 {
			overwrite(<-updates)
		}
	case <-time.After(200 * time.Millisecond):
	}
	for len(l.landers) > 0 {
		l.apply(move{mLand, 0}, true)
	}
	if updates == nil {
		updates = <-opened
	}
	l.run()
	for u := range updates {
		overwrite(u)
	}
	rep, err := l.j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(d.Comparisons) {
		t.Errorf("the stream carried %d results of %d", seen, len(d.Comparisons))
	}
	if !reflect.DeepEqual(rep.Results, ref.Results) {
		t.Error("a streamed overwrite reached the report")
	}
}

// TestDedupResultsLiveMutation is TestResultsLiveMutation for a plan
// that dedups against a result cache: every extension is planned three
// times and an earlier job has cached a third of them, so the stream
// carries cache-served updates and fanned-out executed batches while the
// report fills in place in the lookup's array. A consumer that opens the
// stream before the first batch and overwrites every result never
// reaches the report, and the cache keeps the executed alignments
// unmutated: a follow-up job, served from it alone, gets them intact.
// Each extension's first two rows are adjacent, so extension u's first
// row is 2u and the in-place fan-out must not overwrite slot u before
// row 2u has read it.
func TestDedupResultsLiveMutation(t *testing.T) {
	base := readsData(t, 38, 30)
	cmps := make([]workload.Comparison, 0, 3*len(base.Comparisons))
	for _, c := range base.Comparisons {
		cmps = append(cmps, c, c)
	}
	d := base.WithComparisons(append(cmps, base.Comparisons...))
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 3
	ref := runRef(t, d, cfg)
	e := New(WithDriverConfig(cfg), WithResultCache(1<<12), WithExecutors(4))
	defer e.Close()
	const warmed = 10
	warm := submit(t, e, base.WithComparisons(base.Comparisons[:warmed]))
	wait(t, warm)

	run := func(label string) *driver.Report {
		job := submit(t, e, d)
		seen := make([]bool, len(d.Comparisons))
		for u := range job.Results() {
			for k, o := range u.Results {
				if seen[o.GlobalID] {
					t.Fatalf("%s: comparison %d streamed twice", label, o.GlobalID)
				}
				seen[o.GlobalID] = true
				if o != ref.Results[o.GlobalID] {
					t.Fatalf("%s: batch %d streamed comparison %d as %+v, want %+v",
						label, u.Batch, o.GlobalID, o, ref.Results[o.GlobalID])
				}
				u.Results[k].Score = -999
			}
		}
		rep := wait(t, job)
		if slices.Contains(seen, false) {
			t.Fatalf("%s: the stream missed a comparison", label)
		}
		if !reflect.DeepEqual(rep.Results, ref.Results) {
			t.Fatalf("%s: the report's results differ from driver.Run's", label)
		}
		return rep
	}
	rep := run("mixed job")
	unique := len(base.Comparisons)
	if rep.CacheHits != warmed || rep.CacheMisses != unique-warmed ||
		rep.DedupedComparisons != len(d.Comparisons)-unique || rep.Batches < 2 {
		t.Fatalf("mixed job: %d hits, %d misses, %d deduped, %d batches; want %d, %d, %d, ≥ 2",
			rep.CacheHits, rep.CacheMisses, rep.DedupedComparisons, rep.Batches,
			warmed, unique-warmed, len(d.Comparisons)-unique)
	}
	if rep := run("follow-up job"); rep.Batches != 0 || rep.CacheHits != unique {
		t.Fatalf("follow-up job: %d batches, %d hits; want 0 and %d", rep.Batches, rep.CacheHits, unique)
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
	want := runRef(t, small, cfg)

	jobA := submit(t, e, big)
	ctxB, cancelB := context.WithCancel(context.Background())
	jobB, err := e.Submit(ctxB, big)
	if err != nil {
		t.Fatal(err)
	}
	cancelB()
	jobC := submit(t, e, small)

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
	want := runRef(t, probe, cfg)
	for _, order := range [][2]*workload.Dataset{{probe, other}, {other, probe}} {
		e := New(WithDriverConfig(cfg), WithExecutors(2))
		j0 := submit(t, e, order[0])
		j1 := submit(t, e, order[1])
		for _, j := range []*Job{j0, j1} {
			wait(t, j)
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
	job := submit(t, e, workload.MustPack("empty", nil, nil, false))
	for range job.Results() {
		t.Error("empty dataset streamed an update")
	}
	rep := wait(t, job)
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
	job := submit(t, e, bad)
	if _, err := job.Wait(context.Background()); err == nil {
		t.Fatal("invalid dataset produced a report")
	}
	// The engine keeps serving.
	good := readsData(t, 2, 8)
	job2 := submit(t, e, good)
	wait(t, job2)
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
	job := submit(t, e, readsData(t, 4, 12))
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
