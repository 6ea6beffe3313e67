package alignment

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// randCigarRuns generates a random valid (canonical) run list together
// with fragments h, v that the runs consume exactly, so every property
// can be checked against ground truth assembled alongside.
func randCigarRuns(rng *rand.Rand) (runs []Run, h, v []byte, matches, columns int) {
	alpha := []byte("ACGT")
	nRuns := rng.Intn(8)
	prev := Op(0)
	for r := 0; r < nRuns; r++ {
		ops := []Op{OpMatch, OpMismatch, OpIns, OpDel}
		op := ops[rng.Intn(len(ops))]
		if op == prev {
			continue
		}
		prev = op
		n := 1 + rng.Intn(5)
		runs = append(runs, Run{Op: op, Len: n})
		columns += n
		for k := 0; k < n; k++ {
			switch op {
			case OpMatch:
				c := alpha[rng.Intn(4)]
				h = append(h, c)
				v = append(v, c)
				matches++
			case OpMismatch:
				c := rng.Intn(4)
				h = append(h, alpha[c])
				v = append(v, alpha[(c+1+rng.Intn(3))%4])
			case OpIns:
				h = append(h, alpha[rng.Intn(4)])
			case OpDel:
				v = append(v, alpha[rng.Intn(4)])
			}
		}
	}
	return runs, h, v, matches, columns
}

// TestCigarProperties drives the package's core invariants over random
// canonical CIGARs: round-trip String/Parse, exact span consumption,
// identity in [0,1], reversal self-inverse, wire size accounting.
func TestCigarProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 500; it++ {
		runs, h, v, matches, columns := randCigarRuns(rng)
		c, err := FromRuns(runs)
		if err != nil {
			t.Fatalf("FromRuns(%v): %v", runs, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("generated cigar %q invalid: %v", c, err)
		}

		// Round trip: Parse(String) reproduces the same Cigar and runs.
		rt, err := Parse(c.String())
		if err != nil || rt != c {
			t.Fatalf("round trip of %q: got %q, err %v", c, rt, err)
		}
		back, err := c.Runs()
		if err != nil {
			t.Fatalf("Runs(%q): %v", c, err)
		}
		again, err := FromRuns(back)
		if err != nil || again != c {
			t.Fatalf("FromRuns(Runs(%q)) = %q, err %v", c, again, err)
		}

		// Ops consume exactly the fragments they were generated from.
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats(%q): %v", c, err)
		}
		if st.SpanH != len(h) || st.SpanV != len(v) {
			t.Fatalf("cigar %q spans %dx%d, fragments %dx%d", c, st.SpanH, st.SpanV, len(h), len(v))
		}
		if st.Columns != columns || st.Matches != matches {
			t.Fatalf("cigar %q columns/matches %d/%d, want %d/%d", c, st.Columns, st.Matches, columns, matches)
		}
		if st.Runs != len(back) {
			t.Fatalf("cigar %q run count %d, want %d", c, st.Runs, len(back))
		}
		if c.WireBytes() != 4*len(back) {
			t.Fatalf("cigar %q wire bytes %d, want %d", c, c.WireBytes(), 4*len(back))
		}

		// Identity ∈ [0,1] and equals matches/columns.
		id := c.Identity()
		if id < 0 || id > 1 {
			t.Fatalf("cigar %q identity %v out of range", c, id)
		}
		if columns > 0 && id != float64(matches)/float64(columns) {
			t.Fatalf("cigar %q identity %v, want %v", c, id, float64(matches)/float64(columns))
		}
		if columns == 0 && id != 0 {
			t.Fatalf("empty cigar identity %v", id)
		}

		// Reverse is an involution and preserves stats.
		rev, err := c.Reverse()
		if err != nil {
			t.Fatalf("Reverse(%q): %v", c, err)
		}
		rst, err := rev.Stats()
		if err != nil || rst.SpanH != st.SpanH || rst.SpanV != st.SpanV || rst.Matches != st.Matches {
			t.Fatalf("Reverse(%q) = %q changed stats: %+v vs %+v (err %v)", c, rev, rst, st, err)
		}
		rr, err := rev.Reverse()
		if err != nil || rr != c {
			t.Fatalf("double reverse of %q = %q, err %v", c, rr, err)
		}

		// The score oracle accepts the generated fragments and matches a
		// direct recomputation.
		sc := scoring.DNADefault
		got, err := ScoreOf(h, v, c, sc, -2, -3)
		if err != nil {
			t.Fatalf("ScoreOf(%q): %v", c, err)
		}
		want := 0
		hi, vi := 0, 0
		for _, r := range back {
			switch r.Op {
			case OpMatch, OpMismatch:
				for k := 0; k < r.Len; k++ {
					want += sc.Score(h[hi+k], v[vi+k])
				}
				hi, vi = hi+r.Len, vi+r.Len
			case OpIns:
				want += -3 + r.Len*-2
				hi += r.Len
			case OpDel:
				want += -3 + r.Len*-2
				vi += r.Len
			}
		}
		if got != want {
			t.Fatalf("ScoreOf(%q) = %d, want %d", c, got, want)
		}

		// Alignment validation over the same spans.
		a := Alignment{Score: got, BegH: 3, BegV: 5, EndH: 3 + len(h), EndV: 5 + len(v), Cigar: c}
		if err := a.Validate(); err != nil {
			t.Fatalf("alignment of %q invalid: %v", c, err)
		}
		if a.Identity() != id {
			t.Fatalf("alignment identity %v != cigar identity %v", a.Identity(), id)
		}
	}
}

// TestCigarRejectsMalformed enumerates the invalidity classes: zero
// lengths, unknown ops, missing lengths, truncation, non-canonical
// adjacency.
func TestCigarRejectsMalformed(t *testing.T) {
	bad := []string{
		"0=",                       // zero-length op
		"3=0X",                     // embedded zero-length op
		"01=",                      // leading zero: non-canonical encoding
		"2X007D",                   // ditto, longer run
		"3M",                       // 'M' is deliberately not in the op set
		"=",                        // missing length
		"3",                        // truncated (length without op)
		"3=2",                      // trailing truncated run
		"-1=",                      // negative length (syntax)
		"2=3=",                     // adjacent same-op runs: not canonical
		"1=2X2X",                   // ditto, later position
		"12345678901234567890123=", // length overflow
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", s)
		}
		if Cigar(s).Identity() != 0 {
			t.Errorf("Identity(%q) nonzero on malformed input", s)
		}
		if Cigar(s).WireBytes() != 0 {
			t.Errorf("WireBytes(%q) nonzero on malformed input", s)
		}
		if _, err := Cigar(s).Runs(); err == nil {
			t.Errorf("Runs(%q) accepted malformed input", s)
		}
		if _, err := Cigar(s).Reverse(); err == nil {
			t.Errorf("Reverse(%q) accepted malformed input", s)
		}
	}
	if _, err := FromRuns([]Run{{Op: OpMatch, Len: -1}}); err == nil {
		t.Error("FromRuns accepted a negative run length")
	}
	if _, err := FromRuns([]Run{{Op: 'Q', Len: 2}}); err == nil {
		t.Error("FromRuns accepted an unknown op")
	}
	if _, err := Concat("2=", "1Q"); err == nil {
		t.Error("Concat accepted a malformed part")
	}
}

// TestCigarLengthOverflowBoundary pins the run-length accumulator to what
// strconv.Atoi accepted: the largest int parses to itself, one more is an
// error, and a digit string long enough to wrap a 64-bit accumulator back
// into range is still an error.
func TestCigarLengthOverflowBoundary(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	runs, err := Cigar(maxInt + "=").Runs()
	if err != nil || len(runs) != 1 || runs[0] != (Run{Op: OpMatch, Len: math.MaxInt}) {
		t.Fatalf("Runs(%s=) = %v, %v; want one run of MaxInt", maxInt, runs, err)
	}
	// MaxInt ends in 7 on 32- and 64-bit ints alike.
	over := maxInt[:len(maxInt)-1] + "8"
	for _, s := range []string{over + "=", "3X" + over + "D", maxInt + "0=", "18446744073709551617="} {
		_, err := Parse(s)
		if err == nil || !strings.Contains(err.Error(), "bad length") {
			t.Errorf("Parse(%q) = %v; want a bad-length error", s, err)
		}
	}
}

// TestEmptyCigar pins the zero-value semantics traceback-off paths rely
// on: valid, empty stats, identity 0.
func TestEmptyCigar(t *testing.T) {
	var c Cigar
	if err := c.Validate(); err != nil {
		t.Fatalf("empty cigar invalid: %v", err)
	}
	st, err := c.Stats()
	if err != nil || st != (Stats{}) {
		t.Fatalf("empty cigar stats %+v, err %v", st, err)
	}
	runs, err := c.Runs()
	if err != nil || len(runs) != 0 {
		t.Fatalf("empty cigar runs %v, err %v", runs, err)
	}
	if s, err := ScoreOf(nil, nil, c, scoring.DNADefault, -1, 0); err != nil || s != 0 {
		t.Fatalf("empty cigar score %d, err %v", s, err)
	}
	if a := (Alignment{BegH: 4, EndH: 4, BegV: 9, EndV: 9}); a.Validate() != nil {
		t.Fatalf("empty alignment invalid: %v", a.Validate())
	}
}

// TestBuilderMergesRuns checks boundary merging in Builder, Concat and
// FromRuns — junction runs of the same op must coalesce into canonical
// form.
func TestBuilderMergesRuns(t *testing.T) {
	var b Builder
	b.Append(OpMatch, 3)
	b.Append(OpMatch, 2)
	b.Append(OpIns, 0) // no-op
	b.Append(OpDel, 1)
	if err := b.AppendCigar("2D3="); err != nil {
		t.Fatal(err)
	}
	if got := b.Cigar(); got != "5=3D3=" {
		t.Fatalf("builder produced %q, want 5=3D3=", got)
	}
	// The builder resets after Cigar().
	if got := b.Cigar(); got != "" {
		t.Fatalf("reused builder produced %q", got)
	}

	c, err := Concat("4=", "2=1X", "", "1X3I")
	if err != nil {
		t.Fatal(err)
	}
	if c != "6=2X3I" {
		t.Fatalf("Concat = %q, want 6=2X3I", c)
	}

	merged, err := FromRuns([]Run{{OpMatch, 1}, {OpMatch, 4}, {OpDel, 0}, {OpMismatch, 2}})
	if err != nil || merged != "5=2X" {
		t.Fatalf("FromRuns merged to %q, err %v", merged, err)
	}
}

// TestBuilderWireBytesMatchesCigar: the size a Builder derives from the
// runs it counts while encoding is the one Cigar.WireBytes reads back from
// the string — with a run still pending, across junction merges, and from
// zero again after Cigar().
func TestBuilderWireBytesMatchesCigar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b Builder
	for trial := 0; trial < 300; trial++ {
		if b.WireBytes() != 0 {
			t.Fatalf("trial %d: reset builder reports %d wire bytes", trial, b.WireBytes())
		}
		for part := 0; part < 3; part++ {
			runs, _, _, _, _ := randCigarRuns(rng)
			c, err := FromRuns(runs)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.AppendCigar(c); err != nil {
				t.Fatal(err)
			}
		}
		got := b.WireBytes()
		c := b.Cigar()
		if got != c.WireBytes() {
			t.Fatalf("cigar %q: builder says %d wire bytes, the string %d", c, got, c.WireBytes())
		}
	}
}

// TestScoreOfRejectsDisagreement: the oracle must fail loudly on
// coordinate drift or op/symbol disagreement rather than return a wrong
// score.
func TestScoreOfRejectsDisagreement(t *testing.T) {
	sc := scoring.DNADefault
	cases := []struct {
		name string
		h, v string
		c    Cigar
	}{
		{"match-on-mismatch", "AC", "AG", "2="},
		{"mismatch-on-match", "AC", "AC", "2X"},
		{"underrun-h", "ACG", "AC", "2="},
		{"underrun-v", "AC", "ACG", "2="},
		{"overrun-h", "A", "AC", "2="},
		{"overrun-v", "AC", "A", "2="},
		{"overrun-ins", "A", "", "2I"},
		{"overrun-del", "", "A", "2D"},
	}
	for _, tc := range cases {
		if _, err := ScoreOf([]byte(tc.h), []byte(tc.v), tc.c, sc, -1, 0); err == nil {
			t.Errorf("%s: ScoreOf accepted cigar %q over %q/%q", tc.name, tc.c, tc.h, tc.v)
		}
	}
	if _, err := ScoreOf(nil, nil, "", nil, -1, 0); err == nil {
		t.Error("ScoreOf accepted a nil scorer")
	}
}

// TestAlignmentValidateRejects covers the Alignment-level invariants.
func TestAlignmentValidateRejects(t *testing.T) {
	cases := []Alignment{
		{BegH: -1, EndH: 0, Cigar: ""},                    // negative start
		{BegH: 2, EndH: 1, Cigar: ""},                     // inverted span
		{BegH: 0, EndH: 3, BegV: 0, EndV: 3, Cigar: "2="}, // span mismatch
		{BegH: 0, EndH: 1, BegV: 0, EndV: 1, Cigar: "1M"}, // malformed cigar
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, a)
		}
	}
}

// TestOpPredicates pins the consumption table the walkers rely on.
func TestOpPredicates(t *testing.T) {
	type row struct {
		op   Op
		h, v bool
	}
	for _, r := range []row{{OpMatch, true, true}, {OpMismatch, true, true}, {OpIns, true, false}, {OpDel, false, true}} {
		if r.op.ConsumesH() != r.h || r.op.ConsumesV() != r.v {
			t.Errorf("op %q consumption (%v,%v), want (%v,%v)", r.op, r.op.ConsumesH(), r.op.ConsumesV(), r.h, r.v)
		}
		if !r.op.Valid() {
			t.Errorf("op %q reported invalid", r.op)
		}
	}
	if Op('M').Valid() || Op(0).Valid() {
		t.Error("invalid ops reported valid")
	}
	if !strings.Contains(string(OpMatch), "=") {
		t.Error("OpMatch is not '='")
	}
}

// FuzzParse: Parse must never accept a string whose re-encoding differs,
// and accepted CIGARs must satisfy the structural invariants.
func FuzzParse(f *testing.F) {
	f.Add("12=1X3D")
	f.Add("")
	f.Add("3I2D")
	f.Add("0=")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		runs, err := c.Runs()
		if err != nil {
			t.Fatalf("accepted cigar %q failed Runs: %v", c, err)
		}
		back, err := FromRuns(runs)
		if err != nil || back != c {
			t.Fatalf("accepted cigar %q re-encodes to %q (err %v)", c, back, err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("accepted cigar %q failed Stats: %v", c, err)
		}
		if st.SpanH < 0 || st.SpanV < 0 || st.Matches > st.Columns {
			t.Fatalf("accepted cigar %q has impossible stats %+v", c, st)
		}
		if id := c.Identity(); id < 0 || id > 1 {
			t.Fatalf("accepted cigar %q identity %v", c, id)
		}
	})
}
