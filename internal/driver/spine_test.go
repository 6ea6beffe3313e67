// Multi-slab spine acceptance: the slab layout of the arena is a host
// memory-management detail — repacking the same pool into many small
// slabs (and even spilling them to disk between batches) must leave
// every report bit-identical to the single-slab run. The root package's
// TestInvariantLattice crosses the same layout axis with every other
// execution axis.

package driver

import (
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/workload"
)

// repackSpine rebuilds d's pool into a fresh spine capped at maxSlab
// bytes per slab — same sequences, same indices, same plan — so runs on
// the repacked dataset are byte-comparable to runs on d.
func repackSpine(t testing.TB, d *workload.Dataset, maxSlab int) (*workload.Dataset, *workload.Arena) {
	t.Helper()
	a := workload.NewArena(0, d.NumSeqs())
	a.SetMaxSlabBytes(maxSlab)
	for i := range d.NumSeqs() {
		if _, err := a.TryAppend(d.Seq(i)); err != nil {
			t.Fatal(err)
		}
	}
	rd := a.NewDataset(d.Name, workload.PlanOf(d.Comparisons), d.Protein)
	if err := rd.Validate(); err != nil {
		t.Fatal(err)
	}
	return rd, a
}

// TestArenaSpineMultiSlabBitIdentical: every golden workload/config pair,
// repacked across several slab caps, must reproduce the single-slab
// report fingerprint exactly — results, transfer bytes, modeled seconds.
func TestArenaSpineMultiSlabBitIdentical(t *testing.T) {
	ds := goldenDatasets(t)
	for name, tc := range goldenConfigs() {
		want, err := Run(ds[tc.dataset], tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantFP := reportFingerprint(want)
		// Two layouts per dataset: slabs barely big enough for the longest
		// sequence (maximum fragmentation), and a ~3-slab cut of the pool.
		// Both are sized from the data so every fixture genuinely rolls.
		longest, total := 0, 0
		for i := range ds[tc.dataset].NumSeqs() {
			longest = max(longest, ds[tc.dataset].SeqLen(i))
			total += ds[tc.dataset].SeqLen(i)
		}
		caps := []int{longest, max(longest, total/3+1)}
		for _, maxSlab := range caps {
			rd, arena := repackSpine(t, ds[tc.dataset], maxSlab)
			if arena.NumSlabs() < 2 {
				t.Fatalf("%s: %d-byte cap produced %d slabs — fixture not multi-slab", name, maxSlab, arena.NumSlabs())
			}
			rep, err := Run(rd, tc.cfg)
			if err != nil {
				t.Fatalf("%s cap %d: %v", name, maxSlab, err)
			}
			if got := reportFingerprint(rep); got != wantFP {
				t.Errorf("%s: %d-slab report %s differs from single-slab %s",
					name, arena.NumSlabs(), got, wantFP)
			}
		}
	}
}

// TestArenaSpineSpillExecution: with every slab spilled to disk before
// execution, the driver pins each batch's slab set in, runs it, and
// releases — and the report stays bit-identical to the resident run.
func TestArenaSpineSpillExecution(t *testing.T) {
	ds := goldenDatasets(t)
	tc := goldenConfigs()["reads-partition"]
	want := mustRun(t, ds[tc.dataset], tc.cfg)

	rd, arena := repackSpine(t, ds[tc.dataset], 1<<13)
	arena.EnableSpill(t.TempDir())
	arena.Seal()
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	if st := arena.Residency(); st.Resident != 0 {
		t.Fatalf("fixture not fully spilled: %+v", st)
	}

	rep := mustRun(t, rd, tc.cfg)
	if got := reportFingerprint(rep); got != reportFingerprint(want) {
		t.Errorf("spilled-spine report %s differs from resident %s", got, reportFingerprint(want))
	}
	st := arena.Residency()
	if st.Faults == 0 {
		t.Error("execution over a spilled spine recorded no faults")
	}
	// Every pin was released: the whole spine spills again.
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	if st := arena.Residency(); st.Resident != 0 {
		t.Errorf("slabs still pinned after the run: %+v", st)
	}
	if err := arena.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSpineSpilledDedupPlanning: planning is residency-free. With
// dedup on and one interned duplicate (so the unique-extension sub-plan
// is actually built), BuildBatches over a fully spilled multi-slab spine
// must read spans only — no slab faults in, none changes state.
func TestArenaSpineSpilledDedupPlanning(t *testing.T) {
	a := workload.NewArena(0, 5)
	a.SetMaxSlabBytes(32)
	for _, s := range []string{
		"ACGTACGTACGTACGTACGTACGTACGTACGT",
		"ACGAACGTACGTTCGTACGTACGAACGTACGT",
		"TTGCATGCATGCATGCATGCAAGCATGCATGC",
		"TTGCATGCATGCATTCATGCAAGCATGCATGC",
		"ACGTACGTACGTACGTACGTACGTACGTACGT", // interns onto sequence 0
	} {
		if _, err := a.TryAppend([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	d := a.NewDataset("cold-plan", workload.PlanOf([]workload.Comparison{
		{H: 0, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8},
		{H: 2, V: 3, SeedH: 8, SeedV: 8, SeedLen: 8},
		{H: 4, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8}, // duplicate extension of row 0
	}), false)
	a.EnableSpill(t.TempDir())
	defer a.Close()
	a.Seal()
	if _, err := a.Spill(); err != nil {
		t.Fatal(err)
	}
	before := a.Residency()
	if before.Slabs != 4 || before.Spilled != 4 {
		t.Fatalf("fixture: %+v, want 4 slabs, all spilled", before)
	}

	cfg := goldenConfigs()["reads-partition"].cfg
	cfg.DedupExtensions = true
	bp := mustPlan(t, d, cfg)
	if bp.dedup == nil || bp.dedup.Duplicates() != 1 {
		t.Fatalf("dedup sub-plan path did not run: %+v", bp.dedup)
	}
	if got := a.Residency(); got.Faults != 0 || got.Spilled != before.Spilled {
		t.Errorf("planning touched slab bytes: %+v → %+v", before, got)
	}
}

// TestArenaSpineSmoke is the fast multi-slab end-to-end check CI's short
// mode runs: stream FASTA into a tiny-capped spine, partition, execute
// with dedup and traceback, and compare against the identical content in
// one slab. Kept small enough for -short; the heavier sweeps above are
// the full-mode versions.
func TestArenaSpineSmoke(t *testing.T) {
	fasta := ">a\nACGTACGTACGTACGTACGTACGTACGTACGT\n" +
		">b\nACGAACGTACGTTCGTACGTACGAACGTACGT\n" +
		">c\nTTGCATGCATGCATGCATGCAAGCATGCATGC\n" +
		">d\nTTGCATGCATGCATTCATGCAAGCATGCATGC\n" +
		">a2\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
	build := func(maxSlab int) (*workload.Dataset, *workload.Arena) {
		a := workload.NewArena(0, 5)
		a.SetMaxSlabBytes(maxSlab)
		if _, err := a.AppendFasta(strings.NewReader(fasta), seqio.DNAAlphabet); err != nil {
			t.Fatal(err)
		}
		plan := workload.PlanOf([]workload.Comparison{
			{H: 0, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8},
			{H: 2, V: 3, SeedH: 8, SeedV: 8, SeedLen: 8},
			{H: 4, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8}, // a2 interns onto a
		})
		d := a.NewDataset("smoke", plan, false)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d, a
	}
	cfg := goldenConfigs()["reads-partition"].cfg
	cfg.DedupExtensions = true
	cfg.Traceback = true

	single, arena1 := build(0x7fffffff)
	if arena1.NumSlabs() != 1 {
		t.Fatalf("control spine has %d slabs", arena1.NumSlabs())
	}
	multi, arenaN := build(48)
	if arenaN.NumSlabs() < 3 {
		t.Fatalf("smoke spine has %d slabs, want ≥3", arenaN.NumSlabs())
	}
	arenaN.EnableSpill(t.TempDir())
	arenaN.Seal()
	if _, err := arenaN.Spill(); err != nil {
		t.Fatal(err)
	}

	want := mustRun(t, single, cfg)
	got := mustRun(t, multi, cfg)
	if a, b := reportFingerprint(want), reportFingerprint(got); a != b {
		t.Fatalf("smoke: multi-slab spilled report %s differs from single-slab %s", b, a)
	}
	if got.DedupedComparisons != 1 {
		t.Errorf("smoke: DedupedComparisons = %d, want 1 (a2 interns onto a)", got.DedupedComparisons)
	}
	if err := arenaN.Close(); err != nil {
		t.Fatal(err)
	}
}
