// Package scoring provides symbol-pair similarity functions for sequence
// alignment: simple match/mismatch schemes for DNA and substitution matrices
// (BLOSUM62) for proteins, as used by PASTIS (§2.4, §5.3.1 of the paper).
//
// All scorers expose a dense 256×256 lookup table so the dynamic-programming
// inner loops pay a single array access per cell instead of an interface
// call.
package scoring

import (
	"fmt"
	"math"
)

// PairTable is a dense similarity lookup over raw sequence bytes.
type PairTable [256][256]int8

// Scorer quantifies the similarity of two sequence symbols, the Sim(v,h)
// function of the paper's recurrence (§2.2).
type Scorer interface {
	// Score returns the similarity of symbols a and b.
	Score(a, b byte) int
	// Table returns the dense lookup table backing Score.
	Table() *PairTable
	// MaxScore returns the largest value Score can return; band-size
	// heuristics use it to bound score slopes.
	MaxScore() int
	// String names the scheme for reports.
	String() string
}

// Simple is a match/mismatch scorer for nucleotide alignment. The paper's
// DNA experiments use +1/−1 (the LOGAN/ELBA convention).
type Simple struct {
	match, mismatch int
	tab             PairTable
}

// wildcard is the symbol a Simple scorer mismatches with everything,
// itself included.
const wildcard = 'N'

// NewSimple builds a match/mismatch scorer. match must be positive and
// mismatch negative, both within the table's int8 entries; the symbol 'N'
// mismatches everything including itself.
func NewSimple(match, mismatch int) *Simple {
	if match <= 0 || mismatch >= 0 || match > math.MaxInt8 || mismatch < math.MinInt8 {
		panic(fmt.Sprintf("scoring: invalid simple scheme match=%d mismatch=%d", match, mismatch))
	}
	s := &Simple{match: match, mismatch: mismatch}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			v := mismatch
			if a == b && a != wildcard {
				v = match
			}
			s.tab[a][b] = int8(v)
		}
	}
	return s
}

// Score returns match for equal non-N symbols and mismatch otherwise.
func (s *Simple) Score(a, b byte) int { return int(s.tab[a][b]) }

// Table returns the dense lookup table.
func (s *Simple) Table() *PairTable { return &s.tab }

// MaxScore returns the match reward.
func (s *Simple) MaxScore() int { return s.match }

// MatchMismatch returns the three numbers the whole table is made of:
// Table()[a][b] is match when a == b and a != wildcard, and mismatch
// otherwise, for all 65 536 byte pairs (TestSimpleTableIsMatchMismatch). A
// kernel may therefore compute a Simple scorer's similarity from one byte
// compare instead of loading it; Matrix has no such method and is always
// looked up.
func (s *Simple) MatchMismatch() (match, mismatch int, wild byte) {
	return s.match, s.mismatch, wildcard
}

// String names the scheme.
func (s *Simple) String() string {
	return fmt.Sprintf("simple(%+d/%+d)", s.match, s.mismatch)
}

// DNADefault is the +1/−1 scheme used throughout the paper's DNA
// experiments.
var DNADefault = NewSimple(1, -1)

// Matrix is a substitution-matrix scorer over a fixed symbol order.
type Matrix struct {
	name    string
	symbols string
	tab     PairTable
	max     int
}

// Score returns the matrix entry for the symbol pair; unknown symbols score
// like the ambiguity code 'X'.
func (m *Matrix) Score(a, b byte) int { return int(m.tab[a][b]) }

// Table returns the dense lookup table.
func (m *Matrix) Table() *PairTable { return &m.tab }

// MaxScore returns the largest matrix entry.
func (m *Matrix) MaxScore() int { return m.max }

// String names the matrix.
func (m *Matrix) String() string { return m.name }

// Symbols returns the matrix's symbol order.
func (m *Matrix) Symbols() string { return m.symbols }

// newMatrix builds a Matrix from a row-major half-space-separated literal.
func newMatrix(name, symbols string, rows [][]int8) *Matrix {
	if len(rows) != len(symbols) {
		panic("scoring: matrix row count mismatch")
	}
	m := &Matrix{name: name, symbols: symbols}
	// Unknown symbols behave like 'X' so Score is total over bytes.
	xi := -1
	for i := range symbols {
		if symbols[i] == 'X' {
			xi = i
		}
	}
	fallback := int8(-1)
	if xi >= 0 {
		fallback = rows[xi][xi]
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			m.tab[a][b] = fallback
		}
	}
	m.max = int(rows[0][0])
	for i := range symbols {
		if len(rows[i]) != len(symbols) {
			panic("scoring: matrix column count mismatch")
		}
		for j := range symbols {
			v := rows[i][j]
			m.tab[symbols[i]][symbols[j]] = v
			if int(v) > m.max {
				m.max = int(v)
			}
		}
	}
	return m
}
