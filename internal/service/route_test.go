// Routing must be content-addressed: the slab layout a client's arena
// happened to use — one slab, many, or a wire-decoded spine — must never
// move a workload to a different shard, or repeat traffic would miss the
// shard-local result cache it is supposed to warm.

package service

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/workload"
)

func TestRouteKeySlabLayoutInvariant(t *testing.T) {
	seqs := []string{"ACGTACGTACGTACGT", "TTTTCCCCGGGGAAAA", "ACGAACGTACGTTCGT", "ACGTACGTACGTACGT"}
	cmps := []workload.Comparison{
		{H: 0, V: 1, SeedH: 4, SeedV: 4, SeedLen: 8},
		{H: 2, V: 3, SeedH: 4, SeedV: 4, SeedLen: 8},
	}
	build := func(maxSlab int) *workload.Dataset {
		a := workload.NewArena(0, len(seqs))
		a.SetMaxSlabBytes(maxSlab)
		for _, s := range seqs {
			a.Append([]byte(s))
		}
		d := a.NewDataset("route", workload.PlanOf(cmps), false)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}

	single := build(1 << 20)
	multi := build(16)
	sArena, _ := single.Spine()
	mArena, _ := multi.Spine()
	if sArena.NumSlabs() != 1 || mArena.NumSlabs() < 2 {
		t.Fatalf("fixture layouts: %d and %d slabs", sArena.NumSlabs(), mArena.NumSlabs())
	}
	if routeKey(single) != routeKey(multi) {
		t.Error("identical content routed differently across slab layouts")
	}

	// Different content must (for this fixture) move the key — routeKey is
	// a hash, so this guards against a degenerate constant, not collisions.
	a2 := workload.NewArena(0, 1)
	a2.Append([]byte("GGGGGGGGGGGGGGGG"))
	d2 := a2.NewDataset("route", workload.PlanOf([]workload.Comparison{}), false)
	if routeKey(single) == routeKey(d2) {
		t.Error("different content produced the same routing key")
	}
}
