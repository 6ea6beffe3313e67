package seqio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestAlphabetValidation(t *testing.T) {
	tests := []struct {
		alpha *Alphabet
		in    string
		want  string
		ok    bool
	}{
		{DNAAlphabet, "acgt", "ACGT", true},
		{DNAAlphabet, "ACGTN", "ACGTN", true},
		{DNAAlphabet, "ACGU", "", false},
		{DNAAlphabet, "", "", true},
		{ProteinAlphabet, "mkvl*", "MKVL*", true},
		{ProteinAlphabet, "BZX", "BZX", true},
		{ProteinAlphabet, "MJ", "", false},
	}
	for _, tc := range tests {
		data := []byte(tc.in)
		err := tc.alpha.Clean(data)
		if tc.ok && err != nil {
			t.Errorf("Clean(%q) unexpected error: %v", tc.in, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Clean(%q) wanted error, got none", tc.in)
		}
		if tc.ok && string(data) != tc.want {
			t.Errorf("Clean(%q) = %q, want %q", tc.in, data, tc.want)
		}
	}
}

func randomDNA(rng *rand.Rand, n int) []byte {
	const sym = "ACGT"
	s := make([]byte, n)
	for i := range s {
		s[i] = sym[rng.Intn(4)]
	}
	return s
}

func TestReadFastaBasic(t *testing.T) {
	in := ">read1 a description\nACGT\nacgt\n;comment\n>read2\nTTTT\n"
	seqs, err := ReadFasta(strings.NewReader(in), DNAAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].ID != "read1" || seqs[0].Desc != "a description" {
		t.Errorf("header parse: got %q %q", seqs[0].ID, seqs[0].Desc)
	}
	if string(seqs[0].Data) != "ACGTACGT" {
		t.Errorf("seq1 = %q", seqs[0].Data)
	}
	if seqs[1].ID != "read2" || string(seqs[1].Data) != "TTTT" {
		t.Errorf("seq2 = %v", seqs[1])
	}
}

func TestReadFastaErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",       // data before header
		">x\n",         // empty record
		">\nACGT\n",    // empty header
		">x\nACGU\n",   // invalid symbol
		">x\nAC\n>y\n", // trailing empty record
	}
	for _, in := range cases {
		if _, err := ReadFasta(strings.NewReader(in), DNAAlphabet); err == nil {
			t.Errorf("ReadFasta(%q): wanted error, got none", in)
		}
	}
}

func TestFastaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var seqs []*Sequence
	for i := 0; i < 17; i++ {
		seqs = append(seqs, &Sequence{
			ID:   "s" + strings.Repeat("x", i%3),
			Desc: "",
			Data: randomDNA(rng, 1+rng.Intn(300)),
			Kind: DNA,
		})
	}
	// Give them unique IDs.
	for i, s := range seqs {
		s.ID = s.ID + string(rune('a'+i%26))
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, seqs, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFasta(&buf, DNAAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(seqs) {
		t.Fatalf("round trip count %d != %d", len(back), len(seqs))
	}
	for i := range seqs {
		if !bytes.Equal(seqs[i].Data, back[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
	}
}

func TestWriteFastaWrapping(t *testing.T) {
	s := &Sequence{ID: "x", Data: bytes.Repeat([]byte("A"), 25)}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, []*Sequence{s}, 10); err != nil {
		t.Fatal(err)
	}
	want := ">x\nAAAAAAAAAA\nAAAAAAAAAA\nAAAAA\n"
	if buf.String() != want {
		t.Errorf("got %q want %q", buf.String(), want)
	}
}

func TestKindString(t *testing.T) {
	if DNA.String() != "DNA" || Protein.String() != "protein" {
		t.Error("Kind.String mismatch")
	}
	if (&Sequence{ID: "s", Data: []byte("ACGT")}).String() != "s[4 DNA]" {
		t.Error("Sequence.String mismatch")
	}
}
