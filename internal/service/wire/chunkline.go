// The chunk-line codec: the one record type that carries results, written
// and read without reflection. The contract is byte identity — the encoder
// emits exactly what encoding/json emits for Envelope{Chunk: …} (pinned by
// test), and the parser accepts exactly that byte grammar and declines
// everything else, so encoding/json stays the decoder of record for any
// line another producer wrote and the oracle both halves are tested
// against.

package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// resultSizeHint is a result object's typical encoded size without its
// CIGAR (82 bytes of keys and punctuation, eleven numbers, the optional
// flags and trace bytes); AppendChunkLine reserves this much per result
// so a chunk is appended into one allocation.
const resultSizeHint = 144

// AppendChunkLine appends one NDJSON chunk line — the bytes
// json.Marshal(Envelope{Chunk: &Chunk{…}}) produces for these results (a
// nil outs encodes as [], like the non-nil empty slice the service always
// passed) plus the terminating newline — and returns the extended slice.
// seconds must be finite: json.Marshal refuses NaN and ±Inf, and a
// modeled duration is neither.
func AppendChunkLine(dst []byte, seq, batch, batches int, seconds float64, outs []ipukernel.AlignOut) []byte {
	need := 96 + len(outs)*resultSizeHint
	for i := range outs {
		need += len(outs[i].Cigar)
	}
	dst = slices.Grow(dst, need)
	dst = strconv.AppendInt(append(dst, `{"chunk":{"seq":`...), int64(seq), 10)
	dst = strconv.AppendInt(append(dst, `,"batch":`...), int64(batch), 10)
	dst = strconv.AppendInt(append(dst, `,"batches":`...), int64(batches), 10)
	if seconds != 0 {
		dst = appendFloat(append(dst, `,"seconds":`...), seconds)
	}
	dst = append(dst, `,"results":[`...)
	for i := range outs {
		o := &outs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"id":`...), int64(o.GlobalID), 10)
		dst = strconv.AppendInt(append(dst, `,"score":`...), int64(o.Score), 10)
		dst = strconv.AppendInt(append(dst, `,"ls":`...), int64(o.LeftScore), 10)
		dst = strconv.AppendInt(append(dst, `,"rs":`...), int64(o.RightScore), 10)
		dst = strconv.AppendInt(append(dst, `,"bh":`...), int64(o.BegH), 10)
		dst = strconv.AppendInt(append(dst, `,"bv":`...), int64(o.BegV), 10)
		dst = strconv.AppendInt(append(dst, `,"eh":`...), int64(o.EndH), 10)
		dst = strconv.AppendInt(append(dst, `,"ev":`...), int64(o.EndV), 10)
		dst = strconv.AppendInt(append(dst, `,"cells":`...), o.Cells, 10)
		dst = strconv.AppendInt(append(dst, `,"ad":`...), int64(o.Antidiagonals), 10)
		dst = strconv.AppendInt(append(dst, `,"band":`...), int64(o.MaxLiveBand), 10)
		if o.Clamped {
			dst = append(dst, `,"clamped":true`...)
		}
		if o.Failed {
			dst = append(dst, `,"failed":true`...)
		}
		if o.Cigar != "" {
			dst = appendString(append(dst, `,"cigar":`...), string(o.Cigar))
		}
		if o.TraceBytes != 0 {
			dst = strconv.AppendInt(append(dst, `,"tb":`...), int64(o.TraceBytes), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}}\n"...)
}

// appendFloat writes f in encoding/json's float64 form: shortest
// round-trip digits, exponent form outside [1e-6, 1e21) with its two-digit
// exponent trimmed ("1e-07" → "1e-7").
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString writes s as a JSON string. A valid CIGAR is digits and
// "=XID" and goes out verbatim; anything encoding/json would escape is
// left to encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // strings always marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ParseChunkLine decodes a chunk line AppendChunkLine wrote: the chunk's
// scalar fields (Results left nil) and its results as AlignOuts, in a
// slice sized from the line, every CIGAR re-validated by alignment.Parse.
// ok is false for any other input: a different record type, reordered or
// unknown keys, whitespace, string escapes, a number not in canonical
// form, an explicit zero where the encoder omits the field, an invalid
// CIGAR, trailing bytes. The caller then decodes the line with
// encoding/json, which accepts a superset and reports what is actually
// wrong with a corrupt line.
func ParseChunkLine(line []byte) (c Chunk, outs []ipukernel.AlignOut, ok bool) {
	p := lineParser{b: line}
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

// lineParser is a cursor over one line; the first mismatch sets bad and
// every later step is a no-op.
type lineParser struct {
	b   []byte
	i   int
	bad bool
}

// opt consumes s if the input continues with it.
func (p *lineParser) opt(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lit requires s.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// int64 reads an integer in the one form strconv.AppendInt writes: an
// optional '-', no leading zeros, no "-0". Magnitudes within a digit of
// overflow are declined rather than checked exactly.
func (p *lineParser) int64() int64 {
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

func (p *lineParser) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

// float reads the seconds value: the number token must be byte-for-byte
// what appendFloat writes for the value it parses to, and not zero (the
// encoder omits a zero).
func (p *lineParser) float() float64 {
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
func (p *lineParser) cigar() alignment.Cigar {
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
