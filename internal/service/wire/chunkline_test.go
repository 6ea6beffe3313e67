// Chunk-line codec tests. encoding/json is the oracle for both halves: the
// encoder must write its bytes, and the parser must either agree with it
// field for field or decline the line.

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// marshalChunkLine is the line the service wrote before AppendChunkLine
// existed.
func marshalChunkLine(t testing.TB, seq, batch, batches int, seconds float64, outs []ipukernel.AlignOut) []byte {
	t.Helper()
	results := make([]Result, len(outs))
	for i, o := range outs {
		results[i] = FromAlignOut(o)
	}
	line, err := json.Marshal(Envelope{Chunk: &Chunk{Seq: seq, Batch: batch, Batches: batches, Seconds: seconds, Results: results}})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// randomOuts draws results over the shapes the stream carries: negative
// scores, the two flags, traced (CIGAR + trace bytes) and untraced, small
// and near-overflow magnitudes.
func randomOuts(rng *rand.Rand, n int) []ipukernel.AlignOut {
	num := func() int {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -rng.Intn(1 << 20)
		case 2:
			return rng.Int()
		default:
			return rng.Intn(5000)
		}
	}
	outs := make([]ipukernel.AlignOut, n)
	for i := range outs {
		outs[i] = ipukernel.AlignOut{
			GlobalID: num(), Score: num(), LeftScore: num(), RightScore: num(),
			BegH: num(), BegV: num(), EndH: num(), EndV: num(),
			Cells: int64(num()), Antidiagonals: num(), MaxLiveBand: num(),
			Clamped: rng.Intn(4) == 0, Failed: rng.Intn(6) == 0,
		}
		if rng.Intn(2) == 0 {
			var b alignment.Builder
			for r, ops := 0, "=XID"; r < 1+rng.Intn(6); r++ {
				b.Append(alignment.Op(ops[rng.Intn(len(ops))]), 1+rng.Intn(300))
			}
			outs[i].Cigar = b.Cigar()
		}
		if rng.Intn(2) == 0 {
			outs[i].TraceBytes = rng.Intn(1 << 16)
		}
	}
	return outs
}

func TestAppendChunkLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, seconds := range []float64{0, 1e-7, 0.25, 1e21, 1.5e-9, 123456.789, 1e-6, 9.99e20, -3.5} {
		for _, n := range []int{0, 1, 2, 37} {
			outs := randomOuts(rng, n)
			seq, batch, batches := rng.Intn(300), rng.Intn(40)-1, rng.Intn(40)
			want := marshalChunkLine(t, seq, batch, batches, seconds, outs)
			prefix := []byte("kept")
			got := AppendChunkLine(prefix, seq, batch, batches, seconds, outs)
			if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "kept" {
				t.Fatalf("seconds=%g n=%d:\n got %s\nwant %s", seconds, n, got[len(prefix):], want)
			}
			if n == 0 { // nil encodes like the empty slice the service passed
				if got := AppendChunkLine(nil, seq, batch, batches, seconds, nil); !bytes.Equal(got, want) {
					t.Fatalf("nil results: got %s want %s", got, want)
				}
			}

			ch, parsed, ok := ParseChunkLine(want)
			if !ok {
				t.Fatalf("parser declined the encoder's own line: %s", want)
			}
			if !sameHead(ch, Chunk{Seq: seq, Batch: batch, Batches: batches, Seconds: seconds}) || !slicesEqual(parsed, outs) {
				t.Fatalf("round trip changed the chunk:\n got %+v %+v\nwant %+v", ch, parsed, outs)
			}
		}
	}
	// A CIGAR the kernel would never emit still goes out as encoding/json
	// writes it — and is then not the parser's to accept.
	odd := []ipukernel.AlignOut{{GlobalID: 1, Cigar: alignment.Cigar("3=<\"\\\u2028é\x01")}}
	want := marshalChunkLine(t, 0, 0, 1, 0, odd)
	if got := AppendChunkLine(nil, 0, 0, 1, 0, odd); !bytes.Equal(got, want) {
		t.Fatalf("escaped string: got %s want %s", got, want)
	}
	if _, _, ok := ParseChunkLine(want); ok {
		t.Fatal("parser accepted a line with string escapes")
	}
}

// sameHead compares two chunks' scalar fields.
func sameHead(a, b Chunk) bool {
	return a.Seq == b.Seq && a.Batch == b.Batch && a.Batches == b.Batches && a.Seconds == b.Seconds
}

func slicesEqual(a, b []ipukernel.AlignOut) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// viaEncodingJSON decodes a line the way the client's fallback does.
func viaEncodingJSON(line []byte) (Chunk, []ipukernel.AlignOut, bool) {
	var env Envelope
	if json.Unmarshal(line, &env) != nil || env.Chunk == nil {
		return Chunk{}, nil, false
	}
	outs := make([]ipukernel.AlignOut, len(env.Chunk.Results))
	for i, r := range env.Chunk.Results {
		var err error
		if outs[i], err = r.AlignOut(); err != nil {
			return Chunk{}, nil, false
		}
	}
	return *env.Chunk, outs, true
}

func TestParseChunkLineDeclinesEverythingElse(t *testing.T) {
	const ok = `{"chunk":{"seq":3,"batch":-1,"batches":2,"seconds":0.25,"results":[{"id":0,"score":-4,"ls":1,"rs":2,"bh":3,"bv":4,"eh":5,"ev":6,"cells":7,"ad":8,"band":9,"clamped":true,"cigar":"5=1X","tb":12},{"id":1,"score":0,"ls":0,"rs":0,"bh":0,"bv":0,"eh":0,"ev":0,"cells":0,"ad":0,"band":0,"failed":true}]}}` + "\n"
	if _, outs, accepted := ParseChunkLine([]byte(ok)); !accepted || len(outs) != 2 {
		t.Fatalf("baseline line declined (%d results)", len(outs))
	}
	for name, edit := range map[string][2]string{
		"leading zero":        {`"score":-4`, `"score":-04`},
		"minus zero":          {`"score":0`, `"score":-0`},
		"plus sign":           {`"ls":1`, `"ls":+1`},
		"fraction":            {`"cells":7`, `"cells":7.0`},
		"exponent":            {`"cells":7`, `"cells":7e0`},
		"overflow":            {`"cells":7`, `"cells":99999999999999999999`},
		"escape":              {`"cigar":"5=1X"`, `"cigar":"5=1\u0058"`},
		"invalid cigar":       {`"cigar":"5=1X"`, `"cigar":"5=1Q"`},
		"empty cigar":         {`"cigar":"5=1X"`, `"cigar":""`},
		"unterminated":        {`"cigar":"5=1X"`, `"cigar":"5=1X`},
		"explicit false":      {`"clamped":true`, `"clamped":false`},
		"explicit zero tb":    {`"tb":12`, `"tb":0`},
		"explicit zero secs":  {`"seconds":0.25`, `"seconds":0`},
		"non-canonical secs":  {`"seconds":0.25`, `"seconds":0.250`},
		"exponent secs":       {`"seconds":0.25`, `"seconds":2.5e-1`},
		"infinite secs":       {`"seconds":0.25`, `"seconds":+Inf`},
		"unknown key":         {`,"ad":8`, `,"ad":8,"zz":1`},
		"reordered keys":      {`"ls":1,"rs":2`, `"rs":2,"ls":1`},
		"flags reordered":     {`"band":0,"failed":true`, `"failed":true,"band":0`},
		"missing key":         {`"bh":3,`, ``},
		"whitespace":          {`"seq":3`, `"seq": 3`},
		"trailing comma":      {`"failed":true}]`, `"failed":true},]`},
		"trailing bytes":      {"}}\n", "}}\n{}"},
		"trailing space":      {"}}\n", "}} \n"},
		"no newline":          {"}}\n", "}}"},
		"other record":        {`{"chunk":{`, `{"final":{`},
		"truncated":           {`,"ev":6`, "\x00"},
		"null results":        {`"results":[`, `"results":null,"r":[`},
		"duplicate key later": {`"seq":3`, `"seq":3,"seq":4`},
	} {
		line := strings.Replace(ok, edit[0], edit[1], 1)
		if line == ok {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, _, accepted := ParseChunkLine([]byte(line)); accepted {
			t.Errorf("%s: accepted %s", name, line)
		}
	}
	for cut := 0; cut < len(ok); cut++ {
		if _, _, accepted := ParseChunkLine([]byte(ok[:cut])); accepted {
			t.Fatalf("accepted the line cut at %d", cut)
		}
	}
}

// FuzzParseChunkLine is the differential the codec's contract rests on.
// The fast parser never panics and gives the reference parser's answer —
// ok, chunk and results — on every input, declines included; whenever it
// accepts a line encoding/json accepts it too and both give the same
// chunk. (The converse is not required — encoding/json accepts a superset
// — except for the encoder's own output, which the parser must not
// decline.)
func FuzzParseChunkLine(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3} {
		f.Add(AppendChunkLine(nil, n, n-1, 4, float64(n)*1e-7, randomOuts(rng, n)))
	}
	f.Add([]byte(`{"chunk":{"seq":0,"batch":0,"batches":1,"results":[]}}` + "\n"))
	f.Add([]byte(`{"chunk":{"seq":-0,"batch":01,"batches":1,"seconds":1e-07,"results":[{"id":"\u0031"}]}}` + "\n"))
	f.Add([]byte(`{"final":{"error":"x"}}` + "\n"))
	// Numbers of 1–20 digits and either side of the overflow rule: in the
	// first field (the 8-byte load ends in the next key or mid-number), in
	// cells, and in the last field, where fewer than 8 bytes remain.
	for _, num := range numberSeeds() {
		f.Add([]byte(`{"chunk":{"seq":` + num + `,"batch":0,"batches":1,"results":[{"id":` + num +
			`,"score":1,"ls":0,"rs":0,"bh":0,"bv":0,"eh":0,"ev":0,"cells":` + num + `,"ad":0,"band":` + num + "}]}}\n"))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ch, outs, ok := ParseChunkLine(line)
		refCh, refOuts, refOK := parseChunkLineRef(line)
		if ok != refOK || !reflect.DeepEqual(ch, refCh) || !slicesEqual(outs, refOuts) || (outs == nil) != (refOuts == nil) {
			t.Fatalf("parser and reference disagree on %q:\nfast %v %+v %+v\nref  %v %+v %+v", line, ok, ch, outs, refOK, refCh, refOuts)
		}
		if !ok {
			return
		}
		wantCh, wantOuts, wantOK := viaEncodingJSON(line)
		if !wantOK {
			t.Fatalf("fast parser accepted a line encoding/json rejects: %q", line)
		}
		if !sameHead(ch, wantCh) || !slicesEqual(outs, wantOuts) {
			t.Fatalf("parsers disagree on %q:\nfast %+v %+v\njson %+v %+v", line, ch, outs, wantCh, wantOuts)
		}
		// Accepted means canonical: re-encoding reproduces the line.
		if again := AppendChunkLine(nil, ch.Seq, ch.Batch, ch.Batches, ch.Seconds, outs); !bytes.Equal(again, line) {
			t.Fatalf("accepted a line the encoder would not write:\n in %q\nout %q", line, again)
		}
	})
}

// numberSeeds are integer tokens of every length from 1 to 20 digits
// (both signs, all nines and a one with zeros), the values next to
// MaxInt64 and MinInt64 — the largest the overflow rule accepts, the
// first it declines, and the limits themselves — and digits run into
// the bytes either side of '0'–'9', which a number must stop at.
func numberSeeds() []string {
	var nums []string
	for d := 1; d <= 20; d++ {
		nines, one := strings.Repeat("9", d), "1"+strings.Repeat("0", d-1)
		nums = append(nums, nines, "-"+nines, one, "-"+one)
	}
	return append(nums, "9223372036854775799", "9223372036854775800", "9223372036854775807",
		"-9223372036854775799", "-9223372036854775807", "-9223372036854775808", "00000000001",
		"1:", "1/", "12:4", "1234567/9", "12345678:")
}

// parseChunkLineRef is the chunk-line parser as it stood before the
// word-at-a-time rewrite: one byte and one string compare at a time, the
// same grammar, declines and overflow rule. FuzzParseChunkLine holds
// ParseChunkLine to it on every input.
func parseChunkLineRef(line []byte) (c Chunk, outs []ipukernel.AlignOut, ok bool) {
	p := refParser{b: line}
	p.lit(`{"chunk":{"seq":`)
	c.Seq = p.int()
	p.lit(`,"batch":`)
	c.Batch = p.int()
	p.lit(`,"batches":`)
	c.Batches = p.int()
	if p.opt(`,"seconds":`) {
		c.Seconds = p.float()
	}
	p.lit(`,"results":[`)
	if p.bad { // not a chunk line: spare a large foreign line the count
		return Chunk{}, nil, false
	}
	outs = make([]ipukernel.AlignOut, 0, bytes.Count(line, []byte(`{"id":`)))
	for first := true; !p.bad && !p.opt(`]`); first = false {
		if !first {
			p.lit(`,`)
		}
		var o ipukernel.AlignOut
		p.lit(`{"id":`)
		o.GlobalID = p.int()
		p.lit(`,"score":`)
		o.Score = p.int()
		p.lit(`,"ls":`)
		o.LeftScore = p.int()
		p.lit(`,"rs":`)
		o.RightScore = p.int()
		p.lit(`,"bh":`)
		o.BegH = p.int()
		p.lit(`,"bv":`)
		o.BegV = p.int()
		p.lit(`,"eh":`)
		o.EndH = p.int()
		p.lit(`,"ev":`)
		o.EndV = p.int()
		p.lit(`,"cells":`)
		o.Cells = p.int64()
		p.lit(`,"ad":`)
		o.Antidiagonals = p.int()
		p.lit(`,"band":`)
		o.MaxLiveBand = p.int()
		o.Clamped = p.opt(`,"clamped":true`)
		o.Failed = p.opt(`,"failed":true`)
		if p.opt(`,"cigar":"`) {
			o.Cigar = p.cigar()
		}
		if p.opt(`,"tb":`) {
			o.TraceBytes = p.int()
			p.bad = p.bad || o.TraceBytes == 0
		}
		p.lit(`}`)
		outs = append(outs, o)
	}
	p.lit("}}\n")
	if p.bad || p.i != len(line) {
		return Chunk{}, nil, false
	}
	return c, outs, true
}

// refParser is a cursor over one line; the first mismatch sets bad and
// every later step is a no-op.
type refParser struct {
	b   []byte
	i   int
	bad bool
}

// opt consumes s if the input continues with it.
func (p *refParser) opt(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lit requires s.
func (p *refParser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// int64 reads an integer in the one form strconv.AppendInt writes: an
// optional '-', no leading zeros, no "-0". Magnitudes within a digit of
// overflow are declined rather than checked exactly.
func (p *refParser) int64() int64 {
	neg := p.opt("-")
	start := p.i
	var n int64
	for ; p.i < len(p.b) && p.b[p.i]-'0' < 10; p.i++ {
		if n > (math.MaxInt64-9)/10 {
			p.bad = true
			return 0
		}
		n = n*10 + int64(p.b[p.i]-'0')
	}
	if digits := p.i - start; digits == 0 || p.b[start] == '0' && (digits > 1 || neg) {
		p.bad = true
	}
	if neg {
		return -n
	}
	return n
}

func (p *refParser) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

// float reads the seconds value: the number token must be byte-for-byte
// what appendFloat writes for the value it parses to, and not zero (the
// encoder omits a zero).
func (p *refParser) float() float64 {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != ',' {
		p.i++
	}
	tok := p.b[start:p.i]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || f == 0 || math.IsInf(f, 0) || math.IsNaN(f) ||
		!bytes.Equal(appendFloat(make([]byte, 0, 32), f), tok) {
		p.bad = true
	}
	return f
}

// cigar reads a non-empty string body up to its closing quote. An escape
// or any byte outside the CIGAR alphabet fails alignment.Parse, so no
// separate string grammar is needed.
func (p *refParser) cigar() alignment.Cigar {
	end := bytes.IndexByte(p.b[p.i:], '"')
	if p.bad || end <= 0 {
		p.bad = true
		return ""
	}
	c, err := alignment.Parse(string(p.b[p.i : p.i+end]))
	p.bad = err != nil
	p.i += end + 1
	return c
}

// FuzzAppendChunkLine holds the encoder to encoding/json's bytes over
// arbitrary int64 fields: fields holds 8 bytes per number, thirteen per
// result (its eleven numbers, trace bytes, and a word whose low bits are
// the two flags and whether the result carries cigar).
func FuzzAppendChunkLine(f *testing.F) {
	words := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	var special []int64
	for p := int64(1); p < math.MaxInt64/10; p *= 10 {
		special = append(special, p, p-1, -p, 1-p)
	}
	special = append(special, math.MaxInt64, math.MinInt64, math.MaxInt64-1, math.MinInt64+1, 1e18, -1e18)
	for i := 0; i+13 <= len(special); i += 5 {
		f.Add(3, -1, 8, 0.0, words(special[i:i+13]...), "")
		f.Add(0, 2, 3, 1.25e-4, words(append(special[i:i+12:i+12], int64(i%8))...), "12=1X3D40=")
	}
	f.Add(math.MaxInt, math.MinInt, 0, 1e21, words(7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7), "3=<\"\\\u2028é\x01")
	f.Add(1, 1, 1, -3.5e-9, []byte{}, "")
	f.Fuzz(func(t *testing.T, seq, batch, batches int, seconds float64, fields []byte, cigar string) {
		if math.IsNaN(seconds) || math.IsInf(seconds, 0) {
			return // json.Marshal refuses them; a modeled duration is finite
		}
		var outs []ipukernel.AlignOut
		for ; len(fields) >= 13*8; fields = fields[13*8:] {
			var v [13]int64
			for i := range v {
				v[i] = int64(binary.LittleEndian.Uint64(fields[8*i:]))
			}
			o := ipukernel.AlignOut{
				GlobalID: int(v[0]), Score: int(v[1]), LeftScore: int(v[2]), RightScore: int(v[3]),
				BegH: int(v[4]), BegV: int(v[5]), EndH: int(v[6]), EndV: int(v[7]),
				Cells: v[8], Antidiagonals: int(v[9]), MaxLiveBand: int(v[10]), TraceBytes: int(v[11]),
				Clamped: v[12]&1 != 0, Failed: v[12]&2 != 0,
			}
			if v[12]&4 != 0 {
				o.Cigar = alignment.Cigar(cigar)
			}
			outs = append(outs, o)
		}
		want := marshalChunkLine(t, seq, batch, batches, seconds, outs)
		if got := AppendChunkLine([]byte("kept"), seq, batch, batches, seconds, outs); !bytes.Equal(got[4:], want) || string(got[:4]) != "kept" {
			t.Fatalf("encoder and encoding/json disagree:\n got %s\nwant %s", got[4:], want)
		}
	})
}

// TestChunkKeyWords pins each key constant to the bytes it stands for.
func TestChunkKeyWords(t *testing.T) {
	for key, word := range map[string]uint64{
		`{"id":`: keyID, `"score":`: keyScore, `,"ls":`: keyLS, `,"rs":`: keyRS,
		`,"bh":`: keyBH, `,"bv":`: keyBV, `,"eh":`: keyEH, `,"ev":`: keyEV,
		`"cells":`: keyCells, `,"ad":`: keyAD, `,"band":`: keyBand, `,"tb":`: keyTB,
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], word)
		if got := string(b[:len(key)]); got != key || strings.Trim(string(b[len(key):]), "\x00") != "" {
			t.Errorf("key word %#016x spells %q, want %q", word, b, key)
		}
	}
}

// TestResultMaxIsTheWorstCase: the encoder's reserve before a result is
// the longest result it writes — separator, every field at its widest,
// both flags, the CIGAR key and quotes, trace bytes — plus the 8 bytes a
// word store may write past a key.
func TestResultMaxIsTheWorstCase(t *testing.T) {
	o := ipukernel.AlignOut{
		GlobalID: math.MinInt, Score: math.MinInt, LeftScore: math.MinInt, RightScore: math.MinInt,
		BegH: math.MinInt, BegV: math.MinInt, EndH: math.MinInt, EndV: math.MinInt, Cells: math.MinInt64,
		Antidiagonals: math.MinInt, MaxLiveBand: math.MinInt, Clamped: true, Failed: true, Cigar: "3=", TraceBytes: math.MinInt,
	}
	one := AppendChunkLine(nil, 0, 0, 1, 0, []ipukernel.AlignOut{o})
	two := AppendChunkLine(nil, 0, 0, 1, 0, []ipukernel.AlignOut{o, o})
	worst := len(two) - len(one) - len(o.Cigar) + 8
	if worst > resultMax || strconv.IntSize == 64 && worst != resultMax {
		t.Errorf("the widest result needs a reserve of %d bytes, resultMax is %d", worst, resultMax)
	}
}

// benchOuts is one full chunk of 512 results of long-read magnitudes:
// untraced, the line a warm replay streams, or traced, each with a
// 40-run CIGAR and its trace bytes.
func benchOuts(traced bool) []ipukernel.AlignOut {
	rng := rand.New(rand.NewSource(9))
	outs := make([]ipukernel.AlignOut, 512)
	for i := range outs {
		outs[i] = ipukernel.AlignOut{
			GlobalID: 3000 + i, Score: 900 + rng.Intn(600), LeftScore: rng.Intn(800), RightScore: rng.Intn(800),
			BegH: rng.Intn(40), BegV: rng.Intn(40), EndH: 1400 + rng.Intn(200), EndV: 1400 + rng.Intn(200),
			Cells: int64(20000 + rng.Intn(20000)), Antidiagonals: 2800 + rng.Intn(400), MaxLiveBand: 10 + rng.Intn(30),
		}
		if traced {
			var b alignment.Builder
			for r := 0; r < 20; r++ {
				b.Append(alignment.OpMatch, 1+rng.Intn(120))
				b.Append(alignment.Op("XID"[rng.Intn(3)]), 1+rng.Intn(3))
			}
			outs[i].Cigar, outs[i].TraceBytes = b.Cigar(), 4000+rng.Intn(8000)
		}
	}
	return outs
}

// BenchmarkParseChunkLine parses one full chunk line, untraced (the line
// a warm replay streams) and traced.
func BenchmarkParseChunkLine(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(b *testing.B) {
			outs := benchOuts(traced)
			line := AppendChunkLine(nil, 7, -1, 8, 0, outs)
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for range b.N {
				if _, got, ok := ParseChunkLine(line); !ok || len(got) != len(outs) {
					b.Fatal("chunk line declined")
				}
			}
		})
	}
}

// BenchmarkAppendChunkLine encodes the same chunks into a reused buffer,
// as the service's pump does.
func BenchmarkAppendChunkLine(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(b *testing.B) {
			outs := benchOuts(traced)
			dst := AppendChunkLine(nil, 7, -1, 8, 0, outs)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for range b.N {
				dst = AppendChunkLine(dst[:0], 7, -1, 8, 0, outs)
			}
		})
	}
}
