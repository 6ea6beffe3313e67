package workload

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/seqio"
)

func TestArenaAppendAndSeq(t *testing.T) {
	a := NewArena(0, 0)
	in := [][]byte{[]byte("ACGT"), []byte("TTTT"), []byte("ACGTACGT")}
	for i, s := range in {
		if idx := a.Append(s); idx != i {
			t.Fatalf("Append returned index %d, want %d", idx, i)
		}
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	for i, s := range in {
		if !bytes.Equal(a.Seq(i), s) {
			t.Errorf("Seq(%d) = %q, want %q", i, a.Seq(i), s)
		}
		if int(a.Ref(i).Len) != len(s) {
			t.Errorf("Ref(%d).Len = %d, want %d", i, a.Ref(i).Len, len(s))
		}
	}
	if got, want := a.SlabBytes(), 4+4+8; got != want {
		t.Errorf("SlabBytes = %d, want %d", got, want)
	}
	if got := a.SeqBytes(); got != 16 {
		t.Errorf("SeqBytes = %d, want 16", got)
	}
}

// TestArenaInterning: Append dedups storage but preserves index numbering;
// Intern dedups the index too.
func TestArenaInterning(t *testing.T) {
	a := NewArena(0, 0)
	a.Append([]byte("ACGTACGT"))
	dup := a.Append([]byte("ACGTACGT"))
	if dup != 1 {
		t.Fatalf("Append duplicate returned index %d, want a fresh index 1", dup)
	}
	if a.SlabBytes() != 8 {
		t.Errorf("duplicate grew the slab to %d bytes, want 8", a.SlabBytes())
	}
	if a.Ref(0) != a.Ref(1) {
		t.Errorf("duplicate spans differ: %v vs %v", a.Ref(0), a.Ref(1))
	}
	if a.SavedBytes() != 8 {
		t.Errorf("SavedBytes = %d, want 8", a.SavedBytes())
	}
	if got := a.Intern([]byte("ACGTACGT")); got != 0 {
		t.Errorf("Intern of pooled bytes returned %d, want canonical index 0", got)
	}
	if got := a.Intern([]byte("GGGG")); got != 2 {
		t.Errorf("Intern of new bytes returned %d, want 2", got)
	}
	if a.SlabBytes() != 12 {
		t.Errorf("SlabBytes = %d, want 12", a.SlabBytes())
	}
	// Same length, different content must not collide.
	x := a.Append([]byte("TTTT"))
	if bytes.Equal(a.Seq(x), a.Seq(2)) {
		t.Error("distinct content shares a span")
	}
}

func TestArenaAppendFasta(t *testing.T) {
	in := ">r1 first\nACGT\nacgt\n>r2\nTT\r\nTT\r\n>r1dup\nACGTACGT\n"
	a := NewArena(0, 0)
	ids, err := a.AppendFasta(strings.NewReader(in), seqio.DNAAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "r1" || ids[1] != "r2" || ids[2] != "r1dup" {
		t.Fatalf("ids = %v", ids)
	}
	if !bytes.Equal(a.Seq(0), []byte("ACGTACGT")) || !bytes.Equal(a.Seq(1), []byte("TTTT")) {
		t.Fatalf("sequences wrong: %q %q", a.Seq(0), a.Seq(1))
	}
	// r1 and r1dup have identical symbols → interned storage.
	if a.Ref(0) != a.Ref(2) {
		t.Errorf("identical FASTA records not interned: %v vs %v", a.Ref(0), a.Ref(2))
	}
	if _, err := a.AppendFasta(strings.NewReader(">bad\nACGJ\n"), seqio.DNAAlphabet); err == nil {
		t.Error("invalid symbol accepted")
	}
}

func TestValidateCentralised(t *testing.T) {
	a := NewArena(0, 0)
	a.Append([]byte("ACGTACGT"))
	a.Append([]byte("TTTTTTTT"))
	ok := Comparison{H: 0, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4}
	bad := []Comparison{
		{H: 2, V: 0, SeedLen: 2},                      // missing sequence
		{H: 0, V: -1, SeedLen: 2},                     // negative index
		{H: 0, V: 1, SeedH: 7, SeedV: 0, SeedLen: 4},  // seed off the end of H
		{H: 0, V: 1, SeedH: 0, SeedV: -1, SeedLen: 4}, // negative seed
		{H: 0, V: 1, SeedH: 0, SeedV: 0, SeedLen: 0},  // zero-length seed
	}
	if err := a.ValidatePlan(PlanOf([]Comparison{ok})); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for i, c := range bad {
		if err := a.ValidatePlan(PlanOf([]Comparison{c})); err == nil {
			t.Errorf("bad comparison %d accepted by arena", i)
		}
		// Dataset.Validate must agree — same implementation underneath.
		d := a.NewDataset("v", PlanOf(nil), false)
		d.Comparisons = []Comparison{c}
		if err := d.Validate(); err == nil {
			t.Errorf("bad comparison %d accepted by dataset view", i)
		}
	}
}

func TestPlanColumnsRoundTrip(t *testing.T) {
	cmps := []Comparison{
		{H: 0, V: 1, SeedH: 5, SeedV: 7, SeedLen: 17},
		{H: 3, V: 2, SeedH: 0, SeedV: 1, SeedLen: 13},
	}
	p := PlanOf(cmps)
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i, c := range cmps {
		if p.At(i) != c {
			t.Errorf("At(%d) = %+v, want %+v", i, p.At(i), c)
		}
	}
	mat := p.Comparisons()
	if &mat[0] != &p.Comparisons()[0] {
		t.Error("Comparisons materialisation not cached")
	}
}

// TestArenaDatasetView: the dataset's sequences alias the slab (zero
// copy), and it carries the arena and plan it was built from.
func TestArenaDatasetView(t *testing.T) {
	a := NewArena(0, 0)
	a.Append([]byte("ACGTACGTACGT"))
	a.Append([]byte("ACGAACGTACGT"))
	p := PlanOf([]Comparison{{H: 0, V: 1, SeedH: 4, SeedV: 4, SeedLen: 4}})
	d := a.NewDataset("view", p, false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if &d.Seq(0)[0] != &a.Slab()[a.Ref(0).Off] {
		t.Error("dataset sequence is a copy, not a slab span")
	}
	if d.TotalSeqBytes() != a.SeqBytes() {
		t.Errorf("view bytes %d != arena bytes %d", d.TotalSeqBytes(), a.SeqBytes())
	}
	ar, pl := d.Spine()
	if ar != a || pl != p {
		t.Error("view lost its spine")
	}
}
