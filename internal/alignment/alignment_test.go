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

// runsOf decodes c into its run list.
func runsOf(c Cigar) ([]Run, error) {
	var runs []Run
	err := c.scan(func(r Run) error { runs = append(runs, r); return nil })
	return runs, err
}

// fromRuns encodes runs one Builder.Append at a time, in order or, with
// reverse set, back to front: the reference AppendRuns is held to.
func fromRuns(runs []Run, reverse bool) Cigar {
	var b Builder
	for k := range runs {
		r := runs[k]
		if reverse {
			r = runs[len(runs)-1-k]
		}
		b.Append(r.Op, r.Len)
	}
	return b.Cigar()
}

// wireBytes is the transfer size of c: wireBytesPerRun per run.
func wireBytes(t *testing.T, c Cigar) int {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats(%q): %v", c, err)
	}
	return wireBytesPerRun * st.Runs
}

// TestCigarProperties drives the package's core invariants over random
// canonical CIGARs: round-trip String/Parse, exact span consumption,
// identity in [0,1], reversal self-inverse, the score oracle.
func TestCigarProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 500; it++ {
		runs, h, v, matches, columns := randCigarRuns(rng)
		c := fromRuns(runs, false)
		if err := c.Validate(); err != nil {
			t.Fatalf("generated cigar %q invalid: %v", c, err)
		}

		// Round trip: Parse(String) reproduces the same Cigar and runs.
		rt, err := Parse(c.String())
		if err != nil || rt != c {
			t.Fatalf("round trip of %q: got %q, err %v", c, rt, err)
		}
		back, err := runsOf(c)
		if err != nil {
			t.Fatalf("runs of %q: %v", c, err)
		}
		if again := fromRuns(back, false); again != c {
			t.Fatalf("runs of %q re-encode to %q", c, again)
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

		// Reversal is an involution and preserves stats.
		rev := fromRuns(back, true)
		rst, err := rev.Stats()
		if err != nil || rst.SpanH != st.SpanH || rst.SpanV != st.SpanV || rst.Matches != st.Matches {
			t.Fatalf("reverse of %q = %q changed stats: %+v vs %+v (err %v)", c, rev, rst, st, err)
		}
		revRuns, err := runsOf(rev)
		if rr := fromRuns(revRuns, true); err != nil || rr != c {
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
		if _, err := Cigar(s).Stats(); err == nil {
			t.Errorf("Stats(%q) accepted malformed input", s)
		}
	}
}

// TestCigarLengthOverflowBoundary pins the run-length accumulator to what
// strconv.Atoi accepted: the largest int parses to itself, one more is an
// error, and a digit string long enough to wrap a 64-bit accumulator back
// into range is still an error.
func TestCigarLengthOverflowBoundary(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	runs, err := runsOf(Cigar(maxInt + "="))
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
	runs, err := runsOf(c)
	if err != nil || len(runs) != 0 {
		t.Fatalf("empty cigar runs %v, err %v", runs, err)
	}
	if s, err := ScoreOf(nil, nil, c, scoring.DNADefault, -1, 0); err != nil || s != 0 {
		t.Fatalf("empty cigar score %d, err %v", s, err)
	}
}

// TestBuilderMergesRuns checks boundary merging in Append and AppendRuns —
// junction runs of the same op must coalesce into canonical form.
func TestBuilderMergesRuns(t *testing.T) {
	var b Builder
	b.Append(OpMatch, 3)
	b.Append(OpMatch, 2)
	b.Append(OpIns, 0) // no-op
	b.Append(OpDel, 1)
	b.AppendRuns([]Run{{OpDel, 2}, {OpMatch, 3}}, false)
	if got := b.Cigar(); got != "5=3D3=" {
		t.Fatalf("builder produced %q, want 5=3D3=", got)
	}
	// The builder resets after Cigar().
	if got := b.Cigar(); got != "" {
		t.Fatalf("reused builder produced %q", got)
	}

	if merged := fromRuns([]Run{{OpMatch, 1}, {OpMatch, 4}, {OpDel, 0}, {OpMismatch, 2}}, false); merged != "5=2X" {
		t.Fatalf("Append merged to %q", merged)
	}

	// AppendRuns is Append over each run, in order or back to front: it
	// merges into the run Append left pending and equal adjacent runs of its
	// own, and skips zero and negative lengths.
	in := []Run{{OpMatch, 3}, {OpMatch, 4}, {OpIns, 0}, {OpDel, -1}, {OpDel, 1}, {OpMismatch, 12}, {OpMatch, 140}}
	for _, tc := range []struct {
		pending Run
		reverse bool
		want    Cigar
	}{
		{Run{OpMatch, 2}, false, "9=1D12X140="},
		{Run{OpMismatch, 1}, true, "1X140=12X1D7="},
		{Run{OpMatch, 5}, true, "145=12X1D7="},
		{Run{OpDel, 0}, false, "7=1D12X140="},
	} {
		var got, want Builder
		got.Append(tc.pending.Op, tc.pending.Len)
		got.AppendRuns(in, tc.reverse)
		want.Append(tc.pending.Op, tc.pending.Len)
		for k := range in {
			r := in[k]
			if tc.reverse {
				r = in[len(in)-1-k]
			}
			want.Append(r.Op, r.Len)
		}
		if got.WireBytes() != want.WireBytes() {
			t.Fatalf("pending %v reverse %v: AppendRuns counts %d wire bytes, Append %d", tc.pending, tc.reverse, got.WireBytes(), want.WireBytes())
		}
		g, w := got.Cigar(), want.Cigar()
		if g != tc.want || w != tc.want {
			t.Fatalf("pending %v reverse %v: AppendRuns built %q, Append %q, want %q", tc.pending, tc.reverse, g, w, tc.want)
		}
	}
	var skip Builder
	skip.AppendRuns([]Run{{Op('M'), 0}, {Op(0), -3}}, false)
	if got := skip.Cigar(); got != "" {
		t.Fatalf("AppendRuns of empty runs built %q", got)
	}
	for _, runs := range [][]Run{{{OpMatch, 1}, {Op('M'), 2}}, {{Op(0), 3}}} {
		for _, reverse := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("AppendRuns(%v, %v) did not panic on an invalid op", runs, reverse)
					}
				}()
				var b Builder
				b.AppendRuns(runs, reverse)
			}()
		}
	}
}

// TestBuilderWireBytesMatchesCigar: the size a Builder derives from the
// runs it counts while encoding is the one the string's Stats read back —
// with a run still pending, across junction merges, and from zero again
// after Cigar().
func TestBuilderWireBytesMatchesCigar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b Builder
	for trial := 0; trial < 300; trial++ {
		if b.WireBytes() != 0 {
			t.Fatalf("trial %d: reset builder reports %d wire bytes", trial, b.WireBytes())
		}
		var direct Builder // the same parts through AppendRuns
		for part := 0; part < 3; part++ {
			runs, _, _, _, _ := randCigarRuns(rng)
			for _, r := range runs {
				b.Append(r.Op, r.Len)
			}
			direct.AppendRuns(runs, false)
		}
		got, gotDirect := b.WireBytes(), direct.WireBytes()
		c, cDirect := b.Cigar(), direct.Cigar()
		if got != wireBytes(t, c) {
			t.Fatalf("cigar %q: builder says %d wire bytes, the string %d", c, got, wireBytes(t, c))
		}
		if cDirect != c || gotDirect != got {
			t.Fatalf("cigar %q: AppendRuns built %q and says %d wire bytes", c, cDirect, gotDirect)
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
		runs, err := runsOf(c)
		if err != nil {
			t.Fatalf("accepted cigar %q failed to decode: %v", c, err)
		}
		if back := fromRuns(runs, false); back != c {
			t.Fatalf("accepted cigar %q re-encodes to %q", c, back)
		}
		var b Builder
		if b.AppendRuns(runs, false); b.Cigar() != c {
			t.Fatalf("accepted cigar %q: AppendRuns of its runs does not re-encode it", c)
		}
		rev := fromRuns(runs, true)
		if b.AppendRuns(runs, true); b.Cigar() != rev {
			t.Fatalf("accepted cigar %q: AppendRuns back to front differs from Append back to front %q", c, rev)
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
