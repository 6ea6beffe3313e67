package engine

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/synth"
)

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
	d := synth.Reads(synth.ReadsSpec{
		Name: "handoff", GenomeLen: 36000, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 225, Seed: 23, MaxComparisons: 3800,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// The benchmark's device and batch cap (184 tiles, ≤ 64 comparisons a
	// batch): a schedule of ≈ 60 batches.
	cfg := testCfg(1)
	cfg.Model, cfg.TilesPerIPU, cfg.MaxBatchJobs = platform.GC200.Scaled(8), 0, 64
	e := New(WithDriverConfig(cfg), WithExecutors(executors))
	defer e.Close()

	// One job first, joined without streaming: devices, workspaces and the
	// executor pool are warm when the measured job starts.
	warm, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().BatchesDone

	job, err := e.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	updates := job.Results()
	first, ok := <-updates
	buffered := len(updates)
	delivered := e.Stats().BatchesDone - before
	if !ok {
		t.Fatalf("stream closed without an update: %v", job.Err())
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
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != first.Batches {
		t.Errorf("stream carried %d updates, schedule has %d batches", n, first.Batches)
	}
}
