package workload

import (
	"strings"
	"testing"
)

func testDataset() *Dataset {
	return MustPack("t",
		[][]byte{make([]byte, 100), make([]byte, 80), make([]byte, 60)},
		[]Comparison{
			{H: 0, V: 1, SeedH: 40, SeedV: 30, SeedLen: 10},
			{H: 1, V: 2, SeedH: 10, SeedV: 20, SeedLen: 10},
		}, false)
}

func TestValidate(t *testing.T) {
	d := testDataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Comparison{
		{H: -1, V: 0, SeedLen: 5},
		{H: 0, V: 9, SeedLen: 5},
		{H: 0, V: 1, SeedH: 95, SeedV: 0, SeedLen: 10},
		{H: 0, V: 1, SeedH: 0, SeedV: 75, SeedLen: 10},
		{H: 0, V: 1, SeedLen: 0},
		{H: 0, V: 1, SeedH: -1, SeedLen: 3},
	}
	for i, c := range bad {
		d := testDataset().WithComparisons([]Comparison{c})
		if err := d.Validate(); err == nil {
			t.Errorf("bad comparison %d accepted", i)
		}
	}
}

func TestExtensionLens(t *testing.T) {
	d := testDataset()
	lh, lv, rh, rv := d.ExtensionLens(d.Comparisons[0])
	if lh != 40 || lv != 30 || rh != 50 || rv != 40 {
		t.Errorf("extensions = %d,%d,%d,%d", lh, lv, rh, rv)
	}
	arena, plan := d.Spine()
	if clh, clv, crh, crv := plan.ExtensionLens(arena.Refs(), 0); clh != lh || clv != lv || crh != rh || crv != rv {
		t.Errorf("column extensions = %d,%d,%d,%d, the row's %d,%d,%d,%d", clh, clv, crh, crv, lh, lv, rh, rv)
	}
}

func TestComplexity(t *testing.T) {
	d := testDataset()
	if d.Complexity(d.Comparisons[0]) != 8000 {
		t.Errorf("Complexity = %d", d.Complexity(d.Comparisons[0]))
	}
	if d.Complexity(d.Comparisons[1]) != 4800 {
		t.Errorf("Complexity = %d", d.Complexity(d.Comparisons[1]))
	}
	if a, _ := d.Spine(); seqBytes(a) != 240 {
		t.Errorf("sequence bytes = %d", seqBytes(a))
	}
}

func TestAlignmentSpans(t *testing.T) {
	a := Alignment{Score: 5, BegH: 10, EndH: 30, BegV: 8, EndV: 20}
	if a.SpanH() != 20 || a.SpanV() != 12 {
		t.Errorf("spans = %d, %d", a.SpanH(), a.SpanV())
	}
}

// TestValidateSeedRangeMessages: out-of-range seeds are reported as seed
// errors (not missing-sequence errors), since service clients see these
// messages verbatim.
func TestValidateSeedRangeMessages(t *testing.T) {
	outOfRange := []Comparison{
		{H: 0, V: 1, SeedH: 91, SeedV: 0, SeedLen: 10},  // H seed past end
		{H: 0, V: 1, SeedH: 0, SeedV: 71, SeedLen: 10},  // V seed past end
		{H: 0, V: 1, SeedH: -5, SeedV: 0, SeedLen: 10},  // negative H seed
		{H: 0, V: 1, SeedH: 0, SeedV: -1, SeedLen: 10},  // negative V seed
		{H: 0, V: 1, SeedH: 0, SeedV: 0, SeedLen: 200},  // seed longer than both
		{H: 0, V: 1, SeedH: 10, SeedV: 10, SeedLen: -3}, // non-positive seed
	}
	for i, c := range outOfRange {
		d := testDataset().WithComparisons([]Comparison{c})
		err := d.Validate()
		if err == nil {
			t.Errorf("case %d: out-of-range seed accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), "seed out of range") {
			t.Errorf("case %d: error %q does not report the seed", i, err)
		}
	}
	// Boundary cases stay valid: seed ending exactly at a sequence end.
	d := testDataset().WithComparisons([]Comparison{{H: 0, V: 1, SeedH: 90, SeedV: 70, SeedLen: 10}})
	if err := d.Validate(); err != nil {
		t.Errorf("boundary seed rejected: %v", err)
	}
}

// TestDatasetImmutable pins the one-representation contract: a dataset is
// packed once, rejected (never repaired) when edited afterwards, and
// every derived dataset is a new value.
func TestDatasetImmutable(t *testing.T) {
	seqs := [][]byte{[]byte("ACGTACGTACGT"), []byte("ACGTACGTACGT"), []byte("TTTTCCCCGGGG")}
	cmps := []Comparison{
		{H: 0, V: 2, SeedH: 0, SeedV: 0, SeedLen: 4},
		{H: 1, V: 2, SeedH: 4, SeedV: 4, SeedLen: 4},
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"pack rejects an oversize sequence", func(t *testing.T) {
			a := NewArena(0, 0)
			a.SetMaxSlabBytes(8)
			if _, err := packInto(a, "big", seqs, nil, false); err == nil || !strings.Contains(err.Error(), "sequence 0") {
				t.Errorf("12-byte sequence packed under an 8-byte slab cap: %v", err)
			}
		}},
		{"pack rejects an out-of-range comparison", func(t *testing.T) {
			for _, c := range []Comparison{{H: 0, V: 3, SeedLen: 4}, {H: 0, V: 2, SeedH: 10, SeedLen: 4}} {
				if _, err := Pack("bad", seqs, []Comparison{c}, false); err == nil {
					t.Errorf("comparison %+v packed", c)
				}
			}
		}},
		{"WithComparisons shares the arena and leaves the plan", func(t *testing.T) {
			d := MustPack("d", seqs, cmps, false)
			a, p := d.Spine()
			sub := d.WithComparisons(d.Comparisons[:1])
			sa, sp := sub.Spine()
			if sa != a {
				t.Error("WithComparisons copied the arena")
			}
			if sp == p || sp.Len() != 1 || len(sub.Comparisons) != 1 || sub.Name != "d" {
				t.Errorf("derived plan: %d rows, %d comparisons, name %q", sp.Len(), len(sub.Comparisons), sub.Name)
			}
			if a2, p2 := d.Spine(); a2 != a || p2 != p || p.Len() != 2 || len(d.Comparisons) != 2 {
				t.Error("WithComparisons touched the original")
			}
			if err := sub.Validate(); err != nil {
				t.Error(err)
			}
		}},
		{"Validate rejects reassigned Comparisons", func(t *testing.T) {
			d := MustPack("d", seqs, cmps, false)
			d.Comparisons = d.Comparisons[:1]
			if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "WithComparisons") {
				t.Errorf("truncated Comparisons validated: %v", err)
			}
			if _, p := d.Spine(); p.Len() != 2 {
				t.Error("Validate re-planned instead of rejecting")
			}
			if err := new(Dataset).Validate(); err == nil {
				t.Error("a zero Dataset validated")
			}
		}},
		{"NewDataset over a spilled arena faults nothing", func(t *testing.T) {
			a := rolledArena(t)
			a.EnableSpill(t.TempDir())
			defer a.Close()
			a.Seal()
			if _, err := a.Spill(); err != nil {
				t.Fatal(err)
			}
			before := a.Residency()
			if before.Spilled != before.Slabs {
				t.Fatalf("fixture not fully spilled: %+v", before)
			}
			d := a.NewDataset("cold", PlanOf([]Comparison{{H: 0, V: 2, SeedLen: 4}}), false)
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			_ = d.WithComparisons(d.Comparisons)
			if d.NumSeqs() != 4 || d.SeqLen(2) != 4 || seqBytes(a) != 16 || d.Complexity(d.Comparisons[0]) != 16 {
				t.Error("span-table accessors disagree with the pool")
			}
			if got := a.Residency(); got.Faults != 0 || got.Spilled != before.Spilled {
				t.Errorf("residency moved: %+v → %+v", before, got)
			}
			if string(d.Seq(2)) != "GGGG" || a.Residency().Faults != 1 {
				t.Errorf("Seq did not fault exactly its slab in: %+v", a.Residency())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
