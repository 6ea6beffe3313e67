// Package kmer implements k-mer extraction, counting and seed discovery —
// the first stages of ELBA and PASTIS (§2.3, §2.4). DNA k-mers (k ≤ 31)
// pack 2 bits per base into a uint64; protein k-mers (k ≤ 12) pack 5 bits
// per residue. PASTIS-style quasi-exact protein seeding additionally
// indexes high-scoring single-substitution neighbours under BLOSUM62.
package kmer

import (
	"fmt"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// dnaCode maps A/C/G/T to 2-bit codes; 0xFF marks invalid symbols (N).
var dnaCode = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	t['A'], t['C'], t['G'], t['T'] = 0, 1, 2, 3
	return t
}()

// protCode maps the 20 standard amino acids to 5-bit codes.
var protCode = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	for i, c := range []byte("ARNDCQEGHILKMFPSTWYV") {
		t[c] = byte(i)
	}
	return t
}()

// protAlpha is the inverse of protCode.
var protAlpha = []byte("ARNDCQEGHILKMFPSTWYV")

// Occurrence is one k-mer hit: the packed k-mer and its position.
type Occurrence struct {
	// Kmer is the packed k-mer code.
	Kmer uint64
	// Pos is the 0-based start offset in the sequence.
	Pos int32
}

// ScanDNA emits every valid (N-free) k-mer occurrence of seq.
func ScanDNA(seq []byte, k int, emit func(Occurrence)) error {
	if k < 1 || k > 31 {
		return fmt.Errorf("kmer: DNA k=%d out of range [1,31]", k)
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	var cur uint64
	valid := 0
	for i, c := range seq {
		code := dnaCode[c]
		if code == 0xFF {
			valid = 0
			cur = 0
			continue
		}
		cur = (cur<<2 | uint64(code)) & mask
		valid++
		if valid >= k {
			emit(Occurrence{Kmer: cur, Pos: int32(i - k + 1)})
		}
	}
	return nil
}

// ScanProtein emits every k-mer occurrence of a protein sequence,
// skipping windows with non-standard residues.
func ScanProtein(seq []byte, k int, emit func(Occurrence)) error {
	if k < 1 || k > 12 {
		return fmt.Errorf("kmer: protein k=%d out of range [1,12]", k)
	}
	mask := uint64(1)<<(5*uint(k)) - 1
	var cur uint64
	valid := 0
	for i, c := range seq {
		code := protCode[c]
		if code == 0xFF {
			valid = 0
			cur = 0
			continue
		}
		cur = (cur<<5 | uint64(code)) & mask
		valid++
		if valid >= k {
			emit(Occurrence{Kmer: cur, Pos: int32(i - k + 1)})
		}
	}
	return nil
}

// Counts is a k-mer frequency table (the 1D distributed hash table of
// ELBA's first stage, §2.3, single-process here).
type Counts map[uint64]int32

// CountDNA tallies k-mer frequencies over all sequences.
func CountDNA(seqs [][]byte, k int) (Counts, error) {
	counts := make(Counts)
	for _, s := range seqs {
		if err := ScanDNA(s, k, func(o Occurrence) { counts[o.Kmer]++ }); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// CountProtein tallies protein k-mer frequencies.
func CountProtein(seqs [][]byte, k int) (Counts, error) {
	counts := make(Counts)
	for _, s := range seqs {
		if err := ScanProtein(s, k, func(o Occurrence) { counts[o.Kmer]++ }); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// Reliable returns the set of k-mers with frequency in [lo, hi]: below lo
// they are probably sequencing errors, above hi probably repeats — ELBA's
// reliable-k-mer filter.
func (c Counts) Reliable(lo, hi int32) map[uint64]int32 {
	ids := make(map[uint64]int32)
	for km, n := range c {
		if n >= lo && n <= hi {
			ids[km] = -1 // id assigned later
		}
	}
	return ids
}

// SubstituteNeighbors generates the PASTIS-style quasi-exact neighbour
// set of a packed protein k-mer: every single-residue substitution whose
// BLOSUM62 score against the original residue is at least minScore. The
// original k-mer is not included.
func SubstituteNeighbors(km uint64, k int, minScore int, emit func(uint64)) {
	for pos := 0; pos < k; pos++ {
		shift := uint(5 * (k - 1 - pos))
		orig := byte(km >> shift & 31)
		if int(orig) >= len(protAlpha) {
			continue
		}
		oc := protAlpha[orig]
		for sub, sc := range protAlpha {
			if byte(sub) == orig {
				continue
			}
			if scoring.Blosum62.Score(oc, sc) < minScore {
				continue
			}
			nb := km&^(uint64(31)<<shift) | uint64(sub)<<shift
			emit(nb)
		}
	}
}
