// A cache-served job allocates what its contracts hold — the server's
// report and stream, the replay window's lines, the client's updates and
// report — and no buffer besides.

package serviceclient_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/synth"
)

// TestServiceClientCacheServedAllocs submits one dataset until the cache
// serves it whole, then measures five more submissions over loopback:
// bytes allocated in the process — client and server together — per
// comparison. Not parallel: TotalAlloc counts every goroutine.
func TestServiceClientCacheServedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops scratch at random, so a job's allocations vary")
	}
	d := synth.Reads(synth.ReadsSpec{
		Name: "alloc", GenomeLen: 120000, Coverage: 8, MeanReadLen: 1500, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 47, MaxComparisons: 1500,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(testCfg()), engine.WithResultCache(1 << 14),
	}})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := serviceclient.New(ts.URL)
	ctx := context.Background()
	run := func() (misses int) {
		t.Helper()
		job, err := c.Submit(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		for range job.Results() {
		}
		rep := mustWait(t, ctx, job)
		return rep.Summary.CacheMisses
	}
	run() // cold: executes and fills the cache
	run() // warm: pools and connections settle
	const jobs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	misses := 0
	for i := 0; i < jobs; i++ {
		misses += run()
	}
	runtime.ReadMemStats(&after)
	if misses != 0 {
		t.Fatalf("%d cache misses across the measured jobs, want every one cache-served", misses)
	}
	// 1 580–1 770 B a comparison on linux/amd64 at 1, 2 and 4
	// processors (a 1 500-comparison job). A submit body copied out of
	// the arena, an update channel sized to the job, or unpooled lookup
	// scratch takes it to 2 430–2 530.
	const budget = 2000
	perCmp := float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs*len(d.Comparisons))
	t.Logf("%d comparisons: %.0f B allocated per comparison (budget %d)", len(d.Comparisons), perCmp, budget)
	if perCmp > budget {
		t.Errorf("a cache-served job allocated %.0f B per comparison, budget %d", perCmp, budget)
	}
}
