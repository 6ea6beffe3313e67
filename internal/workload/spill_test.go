package workload

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rolledArena builds a spine with a tiny per-slab cap: four 4-byte
// sequences under an 8-byte cap, so the pool spans two slabs.
func rolledArena(t *testing.T) *Arena {
	t.Helper()
	a := NewArena(0, 4)
	a.SetMaxSlabBytes(8)
	for _, s := range []string{"AAAA", "CCCC", "GGGG", "TTTT"} {
		a.Append([]byte(s))
	}
	if a.NumSlabs() != 2 {
		t.Fatalf("spine has %d slabs, want 2", a.NumSlabs())
	}
	return a
}

func TestArenaSlabRoll(t *testing.T) {
	a := rolledArena(t)
	// Spans: slab offsets restart at every roll.
	if r := a.Ref(0); r != (SeqRef{Slab: 0, Off: 0, Len: 4}) {
		t.Errorf("Ref(0) = %+v", r)
	}
	if r := a.Ref(2); r != (SeqRef{Slab: 1, Off: 0, Len: 4}) {
		t.Errorf("Ref(2) = %+v (roll did not reset offsets)", r)
	}
	if got := a.SlabBytes(); got != 16 {
		t.Errorf("SlabBytes = %d, want 16", got)
	}
	if got := string(a.Seq(2)); got != "GGGG" {
		t.Errorf("Seq(2) = %q", got)
	}
	// The first slab sealed when it rolled; the tail is open.
	if st := a.SlabStateOf(0); st != SlabSealed {
		t.Errorf("slab 0 state = %v, want sealed", st)
	}
	if st := a.SlabStateOf(1); st != SlabOpen {
		t.Errorf("slab 1 state = %v, want open", st)
	}
	// A single sequence over the cap is the only remaining append error.
	if _, err := a.TryAppend([]byte("AAAAAAAAA")); err == nil {
		t.Error("9-byte sequence accepted under an 8-byte slab cap")
	}
	// Appending past the cap in aggregate keeps rolling.
	a.Append([]byte("AACCGGTT"))
	if a.NumSlabs() != 3 {
		t.Errorf("spine has %d slabs after a full-slab append, want 3", a.NumSlabs())
	}
}

// TestInterningAcrossSlabRoll is the satellite coverage for interning and
// digest stability across slab boundaries: a duplicate appended after a
// roll must still share its canonical's span and digest, exactly as if
// the pool were one slab.
func TestInterningAcrossSlabRoll(t *testing.T) {
	a := rolledArena(t)
	// "AAAA" is canonical in slab 0; the pool has rolled to slab 1 since.
	i := a.Append([]byte("AAAA"))
	if a.Ref(i) != a.Ref(0) {
		t.Errorf("duplicate after roll minted span %+v, canonical is %+v", a.Ref(i), a.Ref(0))
	}
	if a.Digest(i) != a.Digest(0) {
		t.Errorf("duplicate after roll has digest %+v, canonical %+v", a.Digest(i), a.Digest(0))
	}
	if a.SavedBytes() != 4 {
		t.Errorf("SavedBytes = %d, want 4", a.SavedBytes())
	}
	if a.SlabBytes() != 16 {
		t.Errorf("duplicate grew the spine to %d bytes", a.SlabBytes())
	}
	// Intern resolves cross-slab too.
	if ci := a.Intern([]byte("GGGG")); ci != 2 {
		t.Errorf("Intern resolved to %d, want 2", ci)
	}

	// Digests depend on bytes alone, not slab layout: the same pool
	// packed into one slab fingerprints identically.
	b := NewArena(0, 4)
	for _, s := range []string{"AAAA", "CCCC", "GGGG", "TTTT"} {
		b.Append([]byte(s))
	}
	if b.NumSlabs() != 1 {
		t.Fatalf("control arena has %d slabs", b.NumSlabs())
	}
	for i := 0; i < 4; i++ {
		if a.Digest(i) != b.Digest(i) {
			t.Errorf("seq %d digest differs across slab layouts: %+v vs %+v", i, a.Digest(i), b.Digest(i))
		}
	}
}

// TestDedupPlanAcrossSlabs pins the slab field of the span key: spans at
// equal offsets in different slabs must never collapse, while true
// duplicates keep collapsing across a roll.
func TestDedupPlanAcrossSlabs(t *testing.T) {
	a := rolledArena(t)
	// Ref(0) and Ref(2) are both {Off:0, Len:4} — in different slabs.
	dup := a.Append([]byte("AAAA")) // interns onto Ref(0)
	p := PlanOf([]Comparison{
		{H: 0, V: 1, SeedH: 0, SeedV: 0, SeedLen: 4},
		{H: 2, V: 3, SeedH: 0, SeedV: 0, SeedLen: 4},   // same offsets, other slab
		{H: dup, V: 1, SeedH: 0, SeedV: 0, SeedLen: 4}, // true duplicate of row 0
	})
	dm := a.DedupPlan(p)
	if dm.Unique() != 2 {
		t.Fatalf("unique extensions = %d, want 2 (rows 0+2 collapse, row 1 distinct)", dm.Unique())
	}
	if dm.RowUID[0] != dm.RowUID[2] {
		t.Errorf("interned duplicate after a slab roll did not collapse")
	}
	if dm.RowUID[0] == dm.RowUID[1] {
		t.Errorf("spans at equal offsets in different slabs collapsed")
	}
}

func TestSpillFaultPinLifecycle(t *testing.T) {
	dir := t.TempDir()
	a := rolledArena(t)
	want := make([]string, a.Len())
	for i := range want {
		want[i] = string(append([]byte(nil), a.Seq(i)...))
	}
	a.EnableSpill(dir)
	a.Seal()

	released, err := a.Spill()
	if err != nil {
		t.Fatal(err)
	}
	if released != 16 {
		t.Errorf("Spill released %d bytes, want 16", released)
	}
	for si := 0; si < a.NumSlabs(); si++ {
		if st := a.SlabStateOf(si); st != SlabSpilled {
			t.Errorf("slab %d state = %v after spill, want spilled", si, st)
		}
	}
	st := a.Residency()
	if st.Spilled != 2 || st.Resident != 0 || st.SpilledBytes != 16 || st.Spills != 2 {
		t.Errorf("residency after spill = %+v", st)
	}

	// Reads fault slabs back in transparently and bytes survive the trip.
	for i := range want {
		if got := string(a.Seq(i)); got != want[i] {
			t.Errorf("seq %d after fault-in = %q, want %q", i, got, want[i])
		}
	}
	if st := a.Residency(); st.Faults < 2 || st.Resident != 2 {
		t.Errorf("residency after fault-in = %+v", st)
	}

	// Pinned slabs refuse to spill; unpinned ones drop again (their spill
	// files are written once, never rewritten).
	pin, err := a.Pin([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if views := pin.Slabs(); len(views) != 2 || views[0] != nil || views[1] == nil {
		t.Fatalf("pin views = %v-slab table, want [nil, bytes]", views)
	}
	if _, err := a.Spill(); err != nil {
		t.Fatal(err)
	}
	if got := a.SlabStateOf(1); got != SlabSealed {
		t.Errorf("pinned slab spilled: state %v", got)
	}
	if got := a.SlabStateOf(0); got != SlabSpilled {
		t.Errorf("unpinned slab kept resident: state %v", got)
	}
	if got := string(pin.Slabs()[1][0:4]); got != "GGGG" {
		t.Errorf("pinned view corrupt: %q", got)
	}
	pin.Release()
	pin.Release() // idempotent
	if _, err := a.Spill(); err != nil {
		t.Fatal(err)
	}
	if got := a.SlabStateOf(1); got != SlabSpilled {
		t.Errorf("released slab did not spill: state %v", got)
	}

	// Hostile pin sets fail cleanly without leaking pins.
	if _, err := a.Pin([]int32{5}); err == nil {
		t.Error("pin of slab 5 in a 2-slab spine succeeded")
	}

	// Close faults everything back and removes the spill files.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d spill files left after Close", len(entries))
	}
	for i := range want {
		if got := string(a.Seq(i)); got != want[i] {
			t.Errorf("seq %d after Close = %q, want %q", i, got, want[i])
		}
	}
}

// TestSpineConcurrentPinSpill soaks the residency lock: concurrent
// pin/read/release cycles race a spiller. Run under -race this proves
// readers holding pins never observe a spilled view.
func TestSpineConcurrentPinSpill(t *testing.T) {
	a := NewArena(0, 8)
	a.SetMaxSlabBytes(16)
	var seqs [][]byte
	for i := 0; i < 8; i++ {
		seqs = append(seqs, bytes.Repeat([]byte{"ACGT"[i%4]}, 12))
		a.Append(seqs[i])
	}
	a.EnableSpill(t.TempDir())
	a.Seal()
	nslabs := a.NumSlabs()
	if nslabs < 4 {
		t.Fatalf("spine has %d slabs, want ≥4", nslabs)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				si := int32((w*31 + i) % nslabs)
				pin, err := a.Pin([]int32{si})
				if err != nil {
					t.Error(err)
					return
				}
				v := pin.Slabs()[si]
				if len(v) == 0 || (v[0] != 'A' && v[0] != 'C' && v[0] != 'G' && v[0] != 'T') {
					t.Errorf("pinned slab %d corrupt: %q", si, v)
					pin.Release()
					return
				}
				pin.Release()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := a.Spill(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreArenaSlabsRoundTrip: a multi-slab spine survives the
// slabs+refs round trip with identical spans, digests and interning.
func TestRestoreArenaSlabsRoundTrip(t *testing.T) {
	a := rolledArena(t)
	a.Append([]byte("AAAA")) // interned duplicate
	r, err := RestoreArenaSlabs(a.SlabViews(), a.Refs())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != a.Len() || r.NumSlabs() != a.NumSlabs() {
		t.Fatalf("restored %d seqs / %d slabs, want %d / %d", r.Len(), r.NumSlabs(), a.Len(), a.NumSlabs())
	}
	for i := 0; i < a.Len(); i++ {
		if r.Ref(i) != a.Ref(i) || r.Digest(i) != a.Digest(i) {
			t.Errorf("seq %d: restored (%+v, %+v), want (%+v, %+v)",
				i, r.Ref(i), r.Digest(i), a.Ref(i), a.Digest(i))
		}
	}
	if r.SavedBytes() != a.SavedBytes() {
		t.Errorf("restored SavedBytes %d, want %d", r.SavedBytes(), a.SavedBytes())
	}
	// Restored slabs come back sealed: the next append rolls.
	r.Append([]byte("AACC"))
	if r.NumSlabs() != a.NumSlabs()+1 {
		t.Errorf("append to restored spine landed in an adopted slab")
	}

	// Hostile inputs: slab index out of range, span past its slab.
	if _, err := RestoreArenaSlabs([][]byte{make([]byte, 4)}, []SeqRef{{Slab: 1, Len: 2}}); err == nil {
		t.Error("out-of-range slab index accepted")
	}
	if _, err := RestoreArenaSlabs([][]byte{make([]byte, 4)}, []SeqRef{{Off: 2, Len: 4}}); err == nil {
		t.Error("span past its slab accepted")
	}
}

// TestStreamingDatasetSpine: a dataset over a multi-slab spine validates,
// measures and clones from the span table.
func TestStreamingDatasetSpine(t *testing.T) {
	a := rolledArena(t)
	p := PlanOf([]Comparison{{H: 0, V: 2, SeedH: 0, SeedV: 0, SeedLen: 4}})
	d := a.NewDataset("stream", p, false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumSeqs() != 4 || d.SeqLen(2) != 4 {
		t.Errorf("NumSeqs/SeqLen = %d/%d", d.NumSeqs(), d.SeqLen(2))
	}
	if d.TotalSeqBytes() != 16 {
		t.Errorf("TotalSeqBytes = %d", d.TotalSeqBytes())
	}
	if got := d.Complexity(d.Comparisons[0]); got != 16 {
		t.Errorf("Complexity = %d", got)
	}
	arena, plan := d.Spine()
	if arena != a || plan != p {
		t.Error("streaming dataset rebuilt its spine")
	}
	c := d.Clone()
	if c.NumSeqs() != 4 || string(c.Seq(2)) != "GGGG" {
		t.Errorf("clone did not re-pack the pool: %d seqs, seq 2 %q", c.NumSeqs(), c.Seq(2))
	}
}

func TestSetMaxSlabBytesValidation(t *testing.T) {
	a := NewArena(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("non-positive cap accepted")
		}
	}()
	a.SetMaxSlabBytes(0)
}

func TestSlabPanicsOnMultiSlabSpine(t *testing.T) {
	a := rolledArena(t)
	defer func() {
		if recover() == nil {
			t.Error("Slab() on a multi-slab spine did not panic")
		}
	}()
	_ = a.Slab()
}

func TestSpillBeforeEnableIsNoop(t *testing.T) {
	a := rolledArena(t)
	a.Seal()
	released, err := a.Spill()
	if err != nil || released != 0 {
		t.Errorf("Spill without EnableSpill: released %d, err %v", released, err)
	}
	if st := a.Residency(); st.Spilled != 0 {
		t.Errorf("slabs spilled without a spill dir: %+v", st)
	}
}

func TestSpillFaultErrorSurfacesOnPin(t *testing.T) {
	dir := t.TempDir()
	a := rolledArena(t)
	a.EnableSpill(dir)
	a.Seal()
	if _, err := a.Spill(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the spill state: delete the files behind the arena's back.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.Remove(fmt.Sprintf("%s/%s", dir, e.Name()))
	}
	if _, err := a.Pin([]int32{0}); err == nil {
		t.Error("pin of a slab with a missing spill file succeeded")
	}
}

// TestSpillCorruptionFailsPin pins spill integrity: a spill file altered
// without changing its length must fail the pin of that slab — and only
// that slab — instead of handing the kernel wrong bytes.
func TestSpillCorruptionFailsPin(t *testing.T) {
	dir := t.TempDir()
	a := rolledArena(t)
	want := string(a.Seq(2))
	a.EnableSpill(dir)
	a.Seal()
	if _, err := a.Spill(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "slab-0-*.bin"))
	if len(files) != 1 {
		t.Fatalf("slab 0 spill files: %v", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(files[0], b, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Pin([]int32{0}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("pin of a slab with a flipped spill byte: err = %v, want a corruption error", err)
	}
	if got := a.SlabStateOf(0); got != SlabSpilled {
		t.Errorf("corrupt slab became %v; it must stay spilled", got)
	}
	pin, err := a.Pin([]int32{1})
	if err != nil {
		t.Fatalf("untouched spill file failed to round-trip: %v", err)
	}
	defer pin.Release()
	if got := string(a.Seq(2)); got != want {
		t.Errorf("slab 1 faulted back as %q, want %q", got, want)
	}
}
