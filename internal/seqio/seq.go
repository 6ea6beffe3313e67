// Package seqio provides biological sequence types, alphabets and FASTA
// input/output for the aligner and the ELBA/PASTIS pipelines.
//
// Sequences are stored as plain byte slices of upper-case symbols
// (nucleotides ACGT or amino-acid one-letter codes). The package validates
// symbols against an Alphabet and reads and writes FASTA.
package seqio

import (
	"fmt"
	"strings"
)

// Kind discriminates nucleotide from protein sequences.
type Kind uint8

const (
	// DNA is the nucleotide alphabet ACGT (N tolerated on input).
	DNA Kind = iota
	// Protein is the 20-letter amino-acid alphabet plus ambiguity codes
	// B, Z, X and the stop symbol '*', matching BLOSUM62 rows.
	Protein
)

// String returns the human-readable alphabet name.
func (k Kind) String() string {
	switch k {
	case DNA:
		return "DNA"
	case Protein:
		return "protein"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Alphabet reports which byte symbols are valid for a sequence kind.
type Alphabet struct {
	kind  Kind
	valid [256]bool
	// canon maps lower-case and ambiguous symbols to their canonical form.
	canon [256]byte
}

// DNAAlphabet is the nucleotide alphabet: A, C, G, T with N accepted and
// canonicalised as-is (scoring treats N as a universal mismatch).
var DNAAlphabet = newAlphabet(DNA, "ACGTN")

// ProteinAlphabet covers the 24 BLOSUM62 symbols.
var ProteinAlphabet = newAlphabet(Protein, "ARNDCQEGHILKMFPSTWYVBZX*")

func newAlphabet(kind Kind, symbols string) *Alphabet {
	a := &Alphabet{kind: kind}
	for i := 0; i < 256; i++ {
		a.canon[i] = byte(i)
	}
	for _, r := range symbols {
		c := byte(r)
		a.valid[c] = true
		lower := byte(strings.ToLower(string(r))[0])
		a.valid[lower] = true
		a.canon[lower] = c
	}
	return a
}

// Kind returns the alphabet's sequence kind.
func (a *Alphabet) Kind() Kind { return a.kind }

// Clean canonicalises s in place and returns an error naming the first
// invalid symbol, if any.
func (a *Alphabet) Clean(s []byte) error {
	for i, c := range s {
		if !a.valid[c] {
			return fmt.Errorf("seqio: invalid %s symbol %q at position %d", a.kind, c, i)
		}
		s[i] = a.canon[c]
	}
	return nil
}

// Sequence is a named biological sequence.
type Sequence struct {
	// ID is the FASTA record identifier (first word of the header).
	ID string
	// Desc is the remainder of the FASTA header, if any.
	Desc string
	// Data holds the canonical upper-case symbols.
	Data []byte
	// Kind records the alphabet the sequence was validated against.
	Kind Kind
}

// String renders a short human-readable summary, not the raw symbols.
func (s *Sequence) String() string {
	return fmt.Sprintf("%s[%d %s]", s.ID, len(s.Data), s.Kind)
}
