// Chunk-line codec tests. encoding/json is the oracle for both halves: the
// encoder must write its bytes, and the parser must either agree with it
// field for field or decline the line.

package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
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

// FuzzParseChunkLine is the differential the codec's contract rests on:
// the fast parser never panics, and whenever it accepts a line
// encoding/json accepts it too and both give the same chunk. (The converse
// is not required — encoding/json accepts a superset — except for the
// encoder's own output, which the parser must not decline.)
func FuzzParseChunkLine(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3} {
		f.Add(AppendChunkLine(nil, n, n-1, 4, float64(n)*1e-7, randomOuts(rng, n)))
	}
	f.Add([]byte(`{"chunk":{"seq":0,"batch":0,"batches":1,"results":[]}}` + "\n"))
	f.Add([]byte(`{"chunk":{"seq":-0,"batch":01,"batches":1,"seconds":1e-07,"results":[{"id":"\u0031"}]}}` + "\n"))
	f.Add([]byte(`{"final":{"error":"x"}}` + "\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		ch, outs, ok := ParseChunkLine(line)
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

// BenchmarkParseChunkLine parses one full cache-served chunk: 512
// untraced results of long-read magnitudes, the line a warm replay
// streams.
func BenchmarkParseChunkLine(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	outs := make([]ipukernel.AlignOut, 512)
	for i := range outs {
		outs[i] = ipukernel.AlignOut{
			GlobalID: 3000 + i, Score: 900 + rng.Intn(600), LeftScore: rng.Intn(800), RightScore: rng.Intn(800),
			BegH: rng.Intn(40), BegV: rng.Intn(40), EndH: 1400 + rng.Intn(200), EndV: 1400 + rng.Intn(200),
			Cells: int64(20000 + rng.Intn(20000)), Antidiagonals: 2800 + rng.Intn(400), MaxLiveBand: 10 + rng.Intn(30),
		}
	}
	line := AppendChunkLine(nil, 7, -1, 8, 0, outs)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for range b.N {
		if _, got, ok := ParseChunkLine(line); !ok || len(got) != len(outs) {
			b.Fatal("chunk line declined")
		}
	}
}
