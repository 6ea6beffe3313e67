package workload

import (
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/seqio"
)

// snapshotArena captures the externally observable arena state.
type arenaSnapshot struct {
	n, slab int
	saved   int64
}

func snapshot(a *Arena) arenaSnapshot {
	return arenaSnapshot{n: a.Len(), slab: a.SlabBytes(), saved: a.SavedBytes()}
}

func TestAppendFastaRollbackOnError(t *testing.T) {
	a := NewArena(0, 4)
	pre := a.Append([]byte("ACGTACGTACGT"))

	before := snapshot(a)
	// Two good records land, then a bad symbol aborts the stream.
	bad := ">r1\nTTTTGGGG\n>r2\nCCCCAAAA\n>r3\nACGTZZZZ\n"
	ids, err := a.AppendFasta(strings.NewReader(bad), seqio.DNAAlphabet)
	if err == nil {
		t.Fatal("invalid record accepted")
	}
	if ids != nil {
		t.Fatalf("failed append returned ids %v", ids)
	}
	if got := snapshot(a); got != before {
		t.Fatalf("failed append left partial state: %+v, want %+v", got, before)
	}

	// Retry with the stream fixed. The records must intern exactly as if
	// the failed call never happened: r1/r2 appear once, a record equal
	// to the pre-existing pool sequence shares its span, and re-appending
	// r1's bytes afterwards interns against the retried copy (no stale or
	// duplicated index entries from the rolled-back call).
	good := ">r1\nTTTTGGGG\n>r2\nCCCCAAAA\n>r3\nACGTACGTACGT\n"
	ids, err = a.AppendFasta(strings.NewReader(good), seqio.DNAAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("retry appended %d records, want 3", len(ids))
	}
	if a.Len() != 4 {
		t.Fatalf("pool has %d sequences, want 4", a.Len())
	}
	if string(a.Seq(1)) != "TTTTGGGG" || string(a.Seq(2)) != "CCCCAAAA" {
		t.Fatalf("retried records corrupt: %q %q", a.Seq(1), a.Seq(2))
	}
	if a.Ref(3) != a.Ref(pre) {
		t.Errorf("record equal to pre-existing sequence did not intern")
	}
	slabAfterRetry := a.SlabBytes()
	if i := a.Append([]byte("TTTTGGGG")); a.Ref(i) != a.Ref(1) {
		t.Errorf("re-append after rollback minted a new span (double-intern)")
	}
	if a.SlabBytes() != slabAfterRetry {
		t.Errorf("re-append after rollback grew the slab: %d -> %d", slabAfterRetry, a.SlabBytes())
	}
}

func TestAppendFastaRollbackPreservesPreexistingInterning(t *testing.T) {
	a := NewArena(0, 2)
	a.Append([]byte("ACGTACGT"))

	// The failing stream interns a duplicate of the pre-existing sequence
	// before hitting the bad record; rollback must not scrub the
	// pre-existing index entry while undoing the duplicate.
	bad := ">dup\nACGTACGT\n>bad\nNOPE!\n"
	if _, err := a.AppendFasta(strings.NewReader(bad), seqio.DNAAlphabet); err == nil {
		t.Fatal("invalid record accepted")
	}
	if a.Len() != 1 || a.SavedBytes() != 0 {
		t.Fatalf("rollback left state: len %d saved %d", a.Len(), a.SavedBytes())
	}
	if i := a.Append([]byte("ACGTACGT")); a.Ref(i) != a.Ref(0) {
		t.Errorf("pre-existing sequence no longer interns after rollback")
	}
}

// TestAppendFastaRollbackAcrossSlabBoundary: a mid-stream error after the
// spine has rolled to fresh slabs must restore the whole spine atomically
// — slab count, tail slab fill, open/sealed state, spans and the intern
// index all back to the mark.
func TestAppendFastaRollbackAcrossSlabBoundary(t *testing.T) {
	a := NewArena(0, 4)
	a.SetMaxSlabBytes(8)
	a.Append([]byte("AAAA")) // slab 0 half full, open

	before := snapshot(a)
	// r1 fills slab 0 to the cap, r2 rolls a fresh slab, r3 aborts.
	bad := ">r1\nCCCC\n>r2\nGGGGTTTT\n>r3\nZZ!\n"
	if _, err := a.AppendFasta(strings.NewReader(bad), seqio.DNAAlphabet); err == nil {
		t.Fatal("invalid record accepted")
	}
	if got := snapshot(a); got != before {
		t.Fatalf("cross-slab rollback left partial state: %+v, want %+v", got, before)
	}
	if a.NumSlabs() != 1 {
		t.Fatalf("rollback left %d slabs, want 1", a.NumSlabs())
	}
	if st := a.SlabStateOf(0); st != SlabOpen {
		t.Fatalf("rollback left the tail slab %v, want open", st)
	}

	// The reopened tail keeps accepting appends in place: the next small
	// sequence lands in slab 0 at the pre-failure offset, not a new slab.
	if i := a.Append([]byte("TT")); a.Ref(i) != (SeqRef{Slab: 0, Off: 4, Len: 2}) {
		t.Fatalf("append after rollback landed at %+v, want {0 4 2}", a.Ref(i))
	}

	// A clean retry rolls slabs exactly as a fresh stream would (slab 0 is
	// at 6/8 bytes now, so r1 rolls to slab 1 and r2 to slab 2), and a
	// record equal to the pre-existing slab-0 sequence interns across the
	// boundary (no stale index entries survived the rollback).
	good := ">r1\nCCCC\n>r2\nGGGGTTTT\n>r3\nAAAA\n"
	ids, err := a.AppendFasta(strings.NewReader(good), seqio.DNAAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("retry appended %d records, want 3", len(ids))
	}
	if a.NumSlabs() != 3 {
		t.Errorf("retry left %d slabs, want 3", a.NumSlabs())
	}
	if a.Ref(a.Len()-1) != a.Ref(0) {
		t.Errorf("record equal to pre-existing sequence did not intern across the slab boundary")
	}
	if string(a.Seq(3)) != "GGGGTTTT" {
		t.Errorf("retried roll record corrupt: %q", a.Seq(3))
	}
}

// TestAppendFastaRollbackSealedTail: when the tail slab was already sealed
// at the mark, rollback must not reopen it — the next append still rolls.
func TestAppendFastaRollbackSealedTail(t *testing.T) {
	a := NewArena(0, 4)
	a.SetMaxSlabBytes(8)
	a.Append([]byte("AAAA"))
	a.Seal()

	before := snapshot(a)
	bad := ">r1\nCCCCGGGG\n>bad\nNOPE!\n" // r1 rolls a fresh slab, then abort
	if _, err := a.AppendFasta(strings.NewReader(bad), seqio.DNAAlphabet); err == nil {
		t.Fatal("invalid record accepted")
	}
	if got := snapshot(a); got != before {
		t.Fatalf("rollback left partial state: %+v, want %+v", got, before)
	}
	if a.NumSlabs() != 1 {
		t.Fatalf("rollback left %d slabs, want 1", a.NumSlabs())
	}
	if st := a.SlabStateOf(0); st != SlabSealed {
		t.Fatalf("rollback reopened a sealed slab: state %v", st)
	}
	if i := a.Append([]byte("TT")); a.Ref(i) != (SeqRef{Slab: 1, Off: 0, Len: 2}) {
		t.Errorf("append after rollback landed at %+v, want a fresh slab", a.Ref(i))
	}
}
