// Engine-level multi-slab spine coverage: the result cache keys on
// content digests, so the slab layout a client packed its pool into must
// be invisible to cache identity — and concurrent jobs over one spilled
// spine must pin and release slabs without racing each other.

package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/sram-align/xdropipu/internal/workload"
)

// repackedSpine packs d's pool into a spine capped at maxSlab bytes per
// slab and returns the repacked dataset plus its arena.
func repackedSpine(t testing.TB, d *workload.Dataset, maxSlab int) (*workload.Dataset, *workload.Arena) {
	t.Helper()
	a := workload.NewArena(0, d.NumSeqs())
	a.SetMaxSlabBytes(maxSlab)
	for i := range d.NumSeqs() {
		a.Append(d.Seq(i))
	}
	if a.NumSlabs() < 2 {
		t.Fatalf("%d-byte cap produced %d slabs — fixture not multi-slab", maxSlab, a.NumSlabs())
	}
	rd := a.NewDataset(d.Name, workload.PlanOf(d.Comparisons), d.Protein)
	if err := rd.Validate(); err != nil {
		t.Fatal(err)
	}
	return rd, a
}

// TestEngineSpineCacheAcrossSlabLayouts: a warm submission of the same
// content repacked into many spilled slabs must be served entirely from
// the result cache — ExtensionKeys are content digests and never see the
// slab layout.
func TestEngineSpineCacheAcrossSlabLayouts(t *testing.T) {
	base := cacheTestDataset(61)
	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()

	j1, err := eng.Submit(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rd, arena := repackedSpine(t, base, 600)
	arena.EnableSpill(t.TempDir())
	arena.Seal()
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	j2, err := eng.Submit(context.Background(), rd)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Batches != 0 {
		t.Errorf("warm multi-slab job executed %d batches, want 0 (cache missed across slab layouts)", warm.Batches)
	}
	if warm.CacheMisses != 0 {
		t.Errorf("warm multi-slab job recorded %d cache misses", warm.CacheMisses)
	}
	for i := range cold.Results {
		if warm.Results[i] != cold.Results[i] {
			t.Fatalf("cache-served result %d differs across slab layouts: %+v vs %+v",
				i, warm.Results[i], cold.Results[i])
		}
	}
	if err := arena.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSpineConcurrentJobsOneArena: several concurrent jobs over the
// SAME spilled spine exercise the pin/release protocol from the engine's
// executor pool — batches of different jobs fault and pin shared slabs
// concurrently, and every job must still report bit-identically.
func TestEngineSpineConcurrentJobsOneArena(t *testing.T) {
	base := cacheTestDataset(67)
	want, err := RunOnce(context.Background(), cacheTestConfig(), base)
	if err != nil {
		t.Fatal(err)
	}

	rd, arena := repackedSpine(t, base, 600)
	arena.EnableSpill(t.TempDir())
	arena.Seal()
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}

	eng := New(WithDriverConfig(cacheTestConfig()), WithExecutors(4), WithQueueDepth(8))
	defer eng.Close()

	const jobs = 6
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := eng.Submit(context.Background(), rd)
			if err != nil {
				t.Error(err)
				return
			}
			rep, err := j.Wait(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want.Results {
				if rep.Results[i] != want.Results[i] {
					t.Errorf("concurrent spilled-spine job: result %d differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// All pins released: the whole spine spills again.
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	if st := arena.Residency(); st.Resident != 0 {
		t.Errorf("slabs still pinned after all jobs drained: %+v", st)
	}
	if st := arena.Residency(); st.Faults == 0 {
		t.Error("no faults recorded — jobs never touched the spilled spine")
	}
	if err := arena.Close(); err != nil {
		t.Fatal(err)
	}
}
