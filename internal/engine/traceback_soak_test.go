package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/workload"
)

// dupDataset repeats a dataset's comparisons factor times over the same
// pool, the duplicate-heavy shape that exercises dedup and the cache.
func dupDataset(d *workload.Dataset, factor int) *workload.Dataset {
	cmps := make([]workload.Comparison, 0, len(d.Comparisons)*factor)
	for f := 0; f < factor; f++ {
		cmps = append(cmps, d.Comparisons...)
	}
	return d.WithComparisons(cmps)
}

// collectStream drains a job's update stream into per-comparison space,
// failing on duplicate or missing comparisons.
func collectStream(t *testing.T, job *Job, n int) []ipukernel.AlignOut {
	t.Helper()
	got := make([]ipukernel.AlignOut, n)
	seen := make([]bool, n)
	for u := range job.Results() {
		for _, r := range u.Results {
			if r.GlobalID < 0 || r.GlobalID >= n {
				t.Fatalf("streamed GlobalID %d out of range", r.GlobalID)
			}
			if seen[r.GlobalID] {
				t.Fatalf("comparison %d streamed twice", r.GlobalID)
			}
			seen[r.GlobalID] = true
			got[r.GlobalID] = r
		}
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("comparison %d never streamed", i)
		}
	}
	return got
}

// TestTracebackSoakStreamingDedupCancel is the engine soak: several
// duplicate-heavy jobs streamed concurrently from a traceback-enabled
// engine with dedup and the cross-job result cache on, with submissions
// cancelled mid-flight interleaved throughout. Every surviving job's
// per-comparison alignments (CIGARs included) must be identical to a
// dedup-off, cache-off traceback run of the same dataset, and the
// mid-job cancellations must neither poison other jobs nor leak into
// their streams. CI reruns this under -race, which is where the soak
// earns its keep: executors, streams and cancellation all cross
// goroutines.
func TestTracebackSoakStreamingDedupCancel(t *testing.T) {
	const dupFactor = 3
	base := dupDataset(readsData(t, 11, 24), dupFactor)

	// Ground truth: plain engine (no dedup, no cache), traceback on.
	plainCfg := testCfg(2)
	plainCfg.Traceback = true
	want := runRef(t, base, plainCfg)
	for i, r := range want.Results {
		if r.Cigar == "" {
			t.Fatalf("ground-truth comparison %d has no cigar", i)
		}
	}

	cacheCfg := plainCfg
	cacheCfg.MaxBatchJobs = 16
	eng := New(WithDriverConfig(cacheCfg), WithResultCache(0), WithQueueDepth(8))
	defer eng.Close()

	const rounds = 3
	const jobsPerRound = 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for jo := 0; jo < jobsPerRound; jo++ {
			wg.Add(1)
			go func(jo int) {
				defer wg.Done()
				if jo == jobsPerRound-1 {
					// The cancellation lane: cancel while batches are in
					// flight; the job must settle with the context error
					// and nothing else.
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					job, err := eng.Submit(ctx, base)
					if err != nil {
						t.Error(err)
						return
					}
					// Wait for the first streamed update (the job is
					// genuinely mid-flight), then cancel.
					<-job.Results()
					cancel()
					// The job may legitimately finish before cancel
					// lands; both outcomes are fine as long as it
					// settles consistently.
					if _, err := job.Wait(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled job settled with %v", err)
					}
					return
				}
				job, err := eng.Submit(context.Background(), base)
				if err != nil {
					t.Error(err)
					return
				}
				got := collectStream(t, job, len(base.Comparisons))
				for i := range got {
					if got[i] != want.Results[i] {
						t.Errorf("round %d job %d: comparison %d differs from dedup-off run:\n got: %+v\nwant: %+v",
							round, jo, i, got[i], want.Results[i])
						return
					}
				}
				rep, err := job.Wait(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if rep.DedupedComparisons == 0 {
					t.Errorf("round %d job %d: no dedup on a %d× duplicated dataset", round, jo, dupFactor)
				}
				if rep.PeakTracebackBytes <= 0 && rep.CacheHits == 0 {
					t.Errorf("round %d job %d: executed batches reported no traceback memory", round, jo)
				}
				for i, r := range rep.Results {
					if r.Cigar != want.Results[i].Cigar {
						t.Errorf("round %d job %d: report cigar %d differs", round, jo, i)
						return
					}
				}
			}(jo)
		}
		wg.Wait()
	}

	// After the soak the cache is warm: a fresh submission must be served
	// (fully or partly) from the cache and still carry identical CIGARs.
	st := eng.Stats()
	if st.CacheHits == 0 {
		t.Fatal("soak produced no cache hits")
	}
	job := submit(t, eng, base)
	got := collectStream(t, job, len(base.Comparisons))
	for i := range got {
		if got[i] != want.Results[i] {
			t.Fatalf("cache-served comparison %d differs:\n got: %+v\nwant: %+v", i, got[i], want.Results[i])
		}
	}
}

// TestWithTracebackOptionFingerprint: the traceback flag must split the
// kernel fingerprint, so score-only and traceback cache entries can
// never alias.
func TestWithTracebackOptionFingerprint(t *testing.T) {
	cfg := testCfg(1).Normalized()
	on := cfg
	on.Traceback = true
	on = on.Normalized()
	if driver.KernelFingerprint(cfg.Kernel) == driver.KernelFingerprint(on.Kernel) {
		t.Fatal("traceback flag does not change the kernel fingerprint")
	}
	traced := testCfg(1)
	traced.Traceback = true
	e := New(WithDriverConfig(traced))
	defer e.Close()
	if !e.Config().Kernel.Traceback {
		t.Fatal("Traceback did not reach the engine's kernel config")
	}
}

// TestTracebackStreamCigarsValidate: streamed updates must carry
// validated CIGARs whose spans match each result's coordinates.
func TestTracebackStreamCigarsValidate(t *testing.T) {
	d := readsData(t, 13, 18)
	cfg := testCfg(1)
	cfg.Traceback = true
	cfg.MaxBatchJobs = 8
	e := New(WithDriverConfig(cfg))
	defer e.Close()
	job := submit(t, e, d)
	got := collectStream(t, job, len(d.Comparisons))
	p := cfg.Kernel.Params
	for i, r := range got {
		c := d.Comparisons[i]
		h, v := d.Seq(c.H), d.Seq(c.V)
		recon, err := alignment.ScoreOf(h[r.BegH:r.EndH], v[r.BegV:r.EndV], r.Cigar, p.Scorer, p.Gap, p.GapOpen)
		if err != nil || recon != r.Score {
			t.Fatalf("streamed comparison %d: reconstructed %d (err %v) != score %d", i, recon, err, r.Score)
		}
	}
}
