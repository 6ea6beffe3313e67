// Engine-level multi-slab spine coverage: concurrent jobs over one
// spilled spine must pin and release slabs without racing each other.

package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/workload"
)

// repackedSpine packs d's pool into a spine capped at maxSlab bytes per
// slab and returns the repacked dataset plus its arena.
func repackedSpine(t testing.TB, d *workload.Dataset, maxSlab int) (*workload.Dataset, *workload.Arena) {
	t.Helper()
	a := workload.NewArena(0, d.NumSeqs())
	a.SetMaxSlabBytes(maxSlab)
	for i := range d.NumSeqs() {
		if _, err := a.TryAppend(d.Seq(i)); err != nil {
			t.Fatal(err)
		}
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

// TestEngineSpineConcurrentJobsOneArena: several concurrent jobs over the
// SAME spilled spine exercise the pin/release protocol from the engine's
// executor pool — batches of different jobs fault and pin shared slabs
// concurrently, and every job must still report bit-identically.
func TestEngineSpineConcurrentJobsOneArena(t *testing.T) {
	base := cacheTestDataset(67)
	want, err := driver.Run(base, cacheTestConfig())
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
