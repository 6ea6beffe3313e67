package scoring

import (
	"testing"
	"testing/quick"
)

func TestSimpleScores(t *testing.T) {
	s := NewSimple(1, -1)
	tests := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 1},
		{'A', 'C', -1},
		{'N', 'N', -1}, // N never matches
		{'G', 'G', 1},
		{'T', 'A', -1},
	}
	for _, tc := range tests {
		if got := s.Score(tc.a, tc.b); got != tc.want {
			t.Errorf("Score(%c,%c) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if s.MaxScore() != 1 {
		t.Errorf("MaxScore = %d, want 1", s.MaxScore())
	}
}

func TestSimplePanicsOnBadScheme(t *testing.T) {
	// The last two do not fit the table's int8 entries.
	for _, mm := range [][2]int{{0, -1}, {1, 0}, {-1, -1}, {1, 1}, {128, -1}, {1, -129}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSimple(%d,%d) did not panic", mm[0], mm[1])
				}
			}()
			NewSimple(mm[0], mm[1])
		}()
	}
}

func TestSimpleTableAgrees(t *testing.T) {
	s := NewSimple(2, -3)
	tab := s.Table()
	f := func(a, b byte) bool {
		return int(tab[a][b]) == s.Score(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSimpleTableIsMatchMismatch pins the compare form of the vector row
// (internal/core/row_amd64.s) to the table it replaces: for every one of
// the 65 536 byte pairs — 'N'/'N', lowercase, 0x00 and bytes ≥ 0x80
// included — the entry is what MatchMismatch's triple says, and a Matrix
// advertises no triple, so the kernel can never take it for one.
func TestSimpleTableIsMatchMismatch(t *testing.T) {
	for _, s := range []*Simple{DNADefault, NewSimple(2, -3), NewSimple(5, -4), NewSimple(127, -128)} {
		match, mismatch, wild := s.MatchMismatch()
		if wild != 'N' {
			t.Errorf("%v: wildcard = %q, want 'N'", s, wild)
		}
		tab := s.Table()
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				want := mismatch
				if a == b && byte(a) != wild {
					want = match
				}
				if got := int(tab[a][b]); got != want {
					t.Fatalf("%v: Table()[%#02x][%#02x] = %d, want %d", s, a, b, got, want)
				}
			}
		}
	}
	type matchMismatcher interface{ MatchMismatch() (int, int, byte) }
	if _, ok := Scorer(DNADefault).(matchMismatcher); !ok {
		t.Error("Simple does not advertise its triple")
	}
	if _, ok := Scorer(Blosum62).(matchMismatcher); ok {
		t.Error("Matrix advertises a match/mismatch triple; it must always be looked up")
	}
}

func TestBlosum62KnownEntries(t *testing.T) {
	tests := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4},
		{'W', 'W', 11},
		{'C', 'C', 9},
		{'A', 'R', -1},
		{'R', 'A', -1},
		{'W', 'C', -2},
		{'*', '*', 1},
		{'B', 'D', 4},
		{'X', 'X', -1},
		{'L', 'I', 2},
		{'E', 'Z', 4},
	}
	for _, tc := range tests {
		if got := Blosum62.Score(tc.a, tc.b); got != tc.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBlosum62Symmetric(t *testing.T) {
	for a := range 256 {
		for b := range 256 {
			if Blosum62.Score(byte(a), byte(b)) != Blosum62.Score(byte(b), byte(a)) {
				t.Fatalf("BLOSUM62 not symmetric at (%c,%c)", a, b)
			}
		}
	}
}

func TestBlosum62UnknownSymbolFallsBackToX(t *testing.T) {
	if Blosum62.Score('J', 'A') != Blosum62.Score('X', 'X') {
		t.Errorf("unknown symbol should score like X/X")
	}
}

func TestBlosum62Max(t *testing.T) {
	if Blosum62.MaxScore() != 11 {
		t.Errorf("MaxScore = %d, want 11 (W/W)", Blosum62.MaxScore())
	}
}

func TestDNADefault(t *testing.T) {
	if DNADefault.Score('A', 'A') != 1 || DNADefault.Score('A', 'G') != -1 {
		t.Error("DNADefault is not +1/-1")
	}
	if DNADefault.String() != "simple(+1/-1)" {
		t.Errorf("String = %q", DNADefault.String())
	}
	if Blosum62.String() != "BLOSUM62" {
		t.Errorf("String = %q", Blosum62.String())
	}
}
