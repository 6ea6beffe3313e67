package engine

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/synth"
)

// leadingCachedUpdates drains job's stream, checks the stream contract
// (every comparison exactly once, bit-identical to the report) and that
// the cache-served updates lead it in bounded, capacity-capped windows,
// and returns how many there were and how many results they carried.
func leadingCachedUpdates(t *testing.T, job *Job, n int) (updates, results int) {
	t.Helper()
	seen := make([]bool, n)
	got := make([]ipukernel.AlignOut, n)
	executed := false
	for u := range job.Results() {
		if u.Batch == -1 {
			if executed {
				t.Error("a cache-served update followed an executed batch")
			}
			if len(u.Results) == 0 || len(u.Results) > cachedChunkResults {
				t.Errorf("cache-served update carries %d results, bound %d", len(u.Results), cachedChunkResults)
			}
			if cap(u.Results) != len(u.Results) {
				t.Errorf("cache-served update has capacity %d over length %d: an append would write the next window",
					cap(u.Results), len(u.Results))
			}
			if u.Seconds != 0 {
				t.Errorf("cache-served update reports %g s of device time", u.Seconds)
			}
			updates++
			results += len(u.Results)
		} else {
			executed = true
		}
		for _, r := range u.Results {
			if r.GlobalID < 0 || r.GlobalID >= n {
				t.Fatalf("streamed GlobalID %d outside the %d submitted comparisons", r.GlobalID, n)
			}
			if seen[r.GlobalID] {
				t.Fatalf("comparison %d streamed twice", r.GlobalID)
			}
			seen[r.GlobalID], got[r.GlobalID] = true, r
		}
		// A consumer may append to what it was handed: the later windows
		// are already queued over the same array, and must not see it.
		_ = append(u.Results, u.Results[0])
	}
	rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != n {
		t.Fatalf("report carries %d results, want %d", len(rep.Results), n)
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("comparison %d never streamed", id)
		}
		if got[id] != rep.Results[id] {
			t.Fatalf("streamed result %d %+v != report %+v", id, got[id], rep.Results[id])
		}
	}
	return updates, results
}

// TestCacheServedStreamIsChunked: a cache-served job of more than two
// chunks streams every comparison exactly once over ⌈n/chunk⌉ leading
// Batch == -1 updates, whether Results is opened before the build, after
// it, or after the job settled. The dataset plans every extension four
// times, so fan-out groups straddle chunk boundaries.
func TestCacheServedStreamIsChunked(t *testing.T) {
	base := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 275, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 31})
	d := dupDataset(base, 4)
	n := len(d.Comparisons)
	wantUpdates := (n + cachedChunkResults - 1) / cachedChunkResults
	if wantUpdates < 3 {
		t.Fatalf("%d comparisons make %d chunks; the test wants more than two", n, wantUpdates)
	}

	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()
	cold, err := eng.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, when := range []string{"before build", "after build", "after settlement"} {
		job, err := eng.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		switch when {
		case "after build":
			<-job.built
		case "after settlement":
			<-job.Done()
		}
		updates, results := leadingCachedUpdates(t, job, n)
		if updates != wantUpdates || results != n {
			t.Errorf("%s: %d results over %d cache-served updates, want %d over %d", when, results, updates, n, wantUpdates)
		}
		rep, _ := job.Wait(context.Background())
		if rep.Batches != 0 || rep.CacheMisses != 0 || rep.CacheHits != rep.UniqueExtensions {
			t.Errorf("%s: warm job ran %d batches, %d hits, %d misses", when, rep.Batches, rep.CacheHits, rep.CacheMisses)
		}
		for i := range want.Results {
			if rep.Results[i] != want.Results[i] {
				t.Fatalf("%s: result %d %+v differs from the cold job's %+v", when, i, rep.Results[i], want.Results[i])
			}
		}
	}
}

// TestMixedJobLeadsWithCachedChunks: a job whose extensions are partly
// cached and partly executed still opens with the cache-served updates —
// all of them, in chunks — before any executed batch.
func TestMixedJobLeadsWithCachedChunks(t *testing.T) {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 700, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 37})
	const warmed = 600
	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()
	warm, err := eng.Submit(context.Background(), d.WithComparisons(d.Comparisons[:warmed]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	job, err := eng.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	updates, results := leadingCachedUpdates(t, job, len(d.Comparisons))
	if results != warmed || updates != (warmed+cachedChunkResults-1)/cachedChunkResults {
		t.Errorf("%d results over %d cache-served updates, want %d over %d",
			results, updates, warmed, (warmed+cachedChunkResults-1)/cachedChunkResults)
	}
	rep, _ := job.Wait(context.Background())
	if rep.CacheHits != warmed || rep.CacheMisses != len(d.Comparisons)-warmed || rep.Batches == 0 {
		t.Errorf("mixed job: %d hits, %d misses, %d batches", rep.CacheHits, rep.CacheMisses, rep.Batches)
	}
	plain, err := RunOnce(context.Background(), cacheTestConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if rep.Results[i] != plain.Results[i] {
			t.Fatalf("result %d %+v differs from the uncached run's %+v", i, rep.Results[i], plain.Results[i])
		}
	}
}
