package engine

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// handoffPlan is a job of noisy long reads on the benchmark's device and
// batch cap (184 tiles, ≤ 64 comparisons a batch): a schedule of ≈ 60
// batches.
func handoffPlan(t *testing.T) (*workload.Dataset, driver.Config) {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "handoff", GenomeLen: 36000, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 225, Seed: 23, MaxComparisons: 3800,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	return d, cfg
}

// TestFirstUpdateNotStarvedByExecutors: a consumer parked on Results()
// gets its first update while the job is still young. Executors never
// block — the update channel is buffered for the whole schedule — so
// without a scheduling point after the send a CPU-bound executor keeps its
// processor, and the consumer the send made runnable waits for Go's 10 ms
// forced preemption while a dozen more batches pile up behind the first.
// deliver yields after a streamed send; the consumer runs next.
//
// The starved configuration is GOMAXPROCS = executors (the engine's
// default), here 2: run with -cpu 2, or on a 2-CPU host. There the parent
// of the commit that added the yield fails this test — it sees ≈ 10–20
// batches delivered and buffered at the first receive, of 60. At -cpu 1
// and -cpu 4 (a free processor) the same bound must hold: the yield is
// harmless when nothing waits. No sleeps and no clocks: the bound is a
// count of batches, each ≈ 1.5 ms of kernel work (more under -race or
// -tags purego), so the 10 ms quantum is several of them.
func TestFirstUpdateNotStarvedByExecutors(t *testing.T) {
	const executors = 2
	d, cfg := handoffPlan(t)
	e := New(WithDriverConfig(cfg), WithExecutors(executors))
	defer e.Close()

	// One job first, joined without streaming: devices, workspaces and the
	// executor pool are warm when the measured job starts.
	warm := submit(t, e, d)
	wait(t, warm)
	before := e.Stats().BatchesDone

	job := submit(t, e, d)
	updates := job.Results()
	first, ok := <-updates
	buffered := len(updates)
	delivered := e.Stats().BatchesDone - before
	if !ok {
		_, err := job.Wait(context.Background())
		t.Fatalf("stream closed without an update: %v", err)
	}
	if first.Batches < 32 {
		t.Fatalf("schedule has %d batches; the test needs ≥ 32 to tell a starved consumer from a prompt one", first.Batches)
	}
	if limit := 2 * executors; buffered > limit || delivered > int64(limit) {
		t.Errorf("at the first update %d more were buffered and %d of %d batches delivered; want ≤ %d each",
			buffered, delivered, first.Batches, limit)
	}
	n := 1
	for range updates {
		n++
	}
	wait(t, job)
	if n != first.Batches {
		t.Errorf("stream carried %d updates, schedule has %d batches", n, first.Batches)
	}
}

// TestCachedUpdatesNotStarvedByFold: a consumer parked on Results() gets
// a cache-served job's first update before the job settles. The plan's
// results are the stream's once the job is registered, but the goroutine
// that registered it goes on to the O(comparisons) fold in complete, and
// without a scheduling point between the two the consumer it woke runs
// only after the fold and the settlement: at -cpu 1 the parent of the
// commit that added the yield hands every one of these 20 000-comparison
// jobs' first update to a consumer that finds the job already settled.
// With the yield a few may still: once in 61 schedules Go's scheduler
// takes the global run queue, where the yield put the registering
// goroutine, before the local one, and a GC cycle can take the processor
// too. So the count is over ten jobs, and at -cpu 2 and 4 the same bound
// must hold. No clocks: whether the job had settled at the first receive.
func TestCachedUpdatesNotStarvedByFold(t *testing.T) {
	const jobs, allowed = 10, 3
	base := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 500, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 41})
	d := dupDataset(base, 40)
	n := len(d.Comparisons)
	e := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer e.Close()
	cold := submit(t, e, d)
	wait(t, cold)

	settled := 0
	for range jobs {
		job := submit(t, e, d)
		updates := job.Results()
		first, ok := <-updates
		select {
		case <-job.doneCh:
			settled++
		default:
		}
		if !ok || first.Batch != -1 {
			t.Fatalf("first update of batch %d (open %v), want a cache-served one", first.Batch, ok)
		}
		results := len(first.Results)
		for u := range updates {
			results += len(u.Results)
		}
		rep := wait(t, job)
		if rep.Batches != 0 || results != n {
			t.Fatalf("warm job ran %d batches and streamed %d of %d results", rep.Batches, results, n)
		}
	}
	t.Logf("%d of %d jobs settled at their first receive", settled, jobs)
	if settled > allowed {
		t.Errorf("%d of %d cache-served jobs had settled when their first update reached the consumer; want ≤ %d",
			settled, jobs, allowed)
	}
}
