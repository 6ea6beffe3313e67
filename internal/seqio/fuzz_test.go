package seqio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFasta hammers the parser with malformed headers, empty records,
// CRLF line endings, comments and arbitrary byte soup. The invariants: no
// panic; on success every record has a non-empty ID and non-empty,
// alphabet-canonical data; and a successful parse round-trips through
// WriteFasta to the same records.
func FuzzReadFasta(f *testing.F) {
	f.Add([]byte(">a\nACGT\n"))
	f.Add([]byte(">a desc here\nacgt\nACGT\n>b\nTTTT\n"))
	f.Add([]byte(">a\r\nAC\r\nGT\r\n>b\r\nNNNN\r\n")) // CRLF
	f.Add([]byte(";comment\n>a\nACGT\n"))
	f.Add([]byte(">\nACGT\n"))      // empty header
	f.Add([]byte(">a\n>b\nACGT\n")) // record with no sequence
	f.Add([]byte("ACGT\n"))         // data before header
	f.Add([]byte(">a\nACGJ\n"))     // invalid symbol
	f.Add([]byte(">a"))             // EOF in header, no newline
	f.Add([]byte(">a\nACGT"))       // EOF in sequence, no newline
	f.Add([]byte(""))
	f.Add([]byte(">a \nACGT\n")) // trailing space after ID

	f.Fuzz(func(t *testing.T, in []byte) {
		seqs, err := ReadFasta(bytes.NewReader(in), DNAAlphabet)
		if err != nil {
			return
		}
		for _, s := range seqs {
			if s.ID == "" {
				t.Fatalf("parsed record with empty ID from %q", in)
			}
			if len(s.Data) == 0 {
				t.Fatalf("parsed record %q with empty sequence from %q", s.ID, in)
			}
			for i, c := range s.Data {
				if strings.IndexByte("ACGTN", c) < 0 {
					t.Fatalf("record %q has non-canonical symbol %q at %d", s.ID, c, i)
				}
			}
			// The parser splits the header at the first space, so an ID
			// with one would not round-trip.
			if strings.ContainsRune(s.ID, ' ') {
				t.Fatalf("record ID %q contains a space", s.ID)
			}
		}
		// Round-trip: writing and re-parsing must reproduce the records.
		var out bytes.Buffer
		if err := WriteFasta(&out, seqs, 60); err != nil {
			t.Fatalf("WriteFasta: %v", err)
		}
		again, err := ReadFasta(bytes.NewReader(out.Bytes()), DNAAlphabet)
		if err != nil {
			t.Fatalf("re-parse after WriteFasta: %v (input %q)", err, in)
		}
		if len(again) != len(seqs) {
			t.Fatalf("round-trip record count %d != %d", len(again), len(seqs))
		}
		for i := range seqs {
			if again[i].ID != seqs[i].ID || !bytes.Equal(again[i].Data, seqs[i].Data) {
				t.Fatalf("round-trip record %d differs: %v vs %v", i, again[i], seqs[i])
			}
		}
	})
}

// TestReadFastaFuncStreams pins the streaming contract: records arrive in
// file order and the scratch buffer is reused between callbacks.
func TestReadFastaFuncStreams(t *testing.T) {
	in := ">a one\nACGT\n>b\nTT\nGG\n"
	var ids, descs []string
	var firstPtr *byte
	reused := false
	err := ReadFastaFunc(strings.NewReader(in), DNAAlphabet, func(id, desc string, seq []byte) error {
		ids = append(ids, id)
		descs = append(descs, desc)
		if firstPtr == nil {
			firstPtr = &seq[0]
		} else if firstPtr == &seq[0] {
			reused = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" || descs[0] != "one" {
		t.Fatalf("streamed records wrong: ids=%v descs=%v", ids, descs)
	}
	if !reused {
		t.Error("scratch buffer not reused across records (streaming contract broken)")
	}
}
