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
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// resultSizeHint is a result object's typical encoded size without its
// CIGAR (82 bytes of keys and punctuation, eleven numbers, the optional
// flags and trace bytes); AppendChunkLine reserves this much per result
// so a chunk is appended into one allocation.
const resultSizeHint = 144

// resultMax bounds one encoded result without its CIGAR's text: 122
// bytes of separator, keys, flags and quotes, twelve numbers of at most 20 bytes
// ("-9223372036854775808"), and the 8 a word store may write past its
// key. AppendChunkLine keeps this much free before each result, so every
// store inside one is in bounds.
const resultMax = 122 + 12*20 + 8

// The per-result keys as little-endian words, for one load and compare
// (parser) or one store (encoder) each. A key longer than 8 bytes is its
// leading comma plus one word. TestChunkKeyWords pins every constant to
// its string.
const (
	keyID    = 0x00003a226469227b // {"id":
	keyScore = 0x3a2265726f637322 // "score": (after ',')
	keyLS    = 0x00003a22736c222c // ,"ls":
	keyRS    = 0x00003a227372222c // ,"rs":
	keyBH    = 0x00003a226862222c // ,"bh":
	keyBV    = 0x00003a227662222c // ,"bv":
	keyEH    = 0x00003a226865222c // ,"eh":
	keyEV    = 0x00003a227665222c // ,"ev":
	keyCells = 0x3a22736c6c656322 // "cells": (after ',')
	keyAD    = 0x00003a226461222c // ,"ad":
	keyBand  = 0x3a22646e6162222c // ,"band":
	keyTB    = 0x00003a226274222c // ,"tb":
)

// AppendChunkLine appends one NDJSON chunk line — the bytes
// json.Marshal(Envelope{Chunk: &Chunk{…}}) produces for these results (a
// nil outs encodes as [], like the non-nil empty slice the service always
// passed) plus the terminating newline — and returns the extended slice.
// seconds must be finite: json.Marshal refuses NaN and ±Inf, and a
// modeled duration is neither. Results are written by index into the
// grown buffer: keys as word stores, numbers by putInt.
func AppendChunkLine(dst []byte, seq, batch, batches int, seconds float64, outs []ipukernel.AlignOut) []byte {
	need := 96 + len(outs)*resultSizeHint + resultMax
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
		dst = slices.Grow(dst, resultMax+len(o.Cigar))
		b, n := dst[:cap(dst)], len(dst)
		if i > 0 {
			b[n] = ','
			n++
		}
		n = putInt(b, putKey(b, n, keyID, 6), int64(o.GlobalID))
		b[n] = ','
		n = putInt(b, putKey(b, n+1, keyScore, 8), int64(o.Score))
		n = putInt(b, putKey(b, n, keyLS, 6), int64(o.LeftScore))
		n = putInt(b, putKey(b, n, keyRS, 6), int64(o.RightScore))
		n = putInt(b, putKey(b, n, keyBH, 6), int64(o.BegH))
		n = putInt(b, putKey(b, n, keyBV, 6), int64(o.BegV))
		n = putInt(b, putKey(b, n, keyEH, 6), int64(o.EndH))
		n = putInt(b, putKey(b, n, keyEV, 6), int64(o.EndV))
		b[n] = ','
		n = putInt(b, putKey(b, n+1, keyCells, 8), o.Cells)
		n = putInt(b, putKey(b, n, keyAD, 6), int64(o.Antidiagonals))
		n = putInt(b, putKey(b, n, keyBand, 8), int64(o.MaxLiveBand))
		if o.Clamped {
			n += copy(b[n:], `,"clamped":true`)
		}
		if o.Failed {
			n += copy(b[n:], `,"failed":true`)
		}
		if o.Cigar != "" {
			n += copy(b[n:], `,"cigar":`)
			if quoted := quoteString(string(o.Cigar)); quoted == nil {
				b[n] = '"'
				n += copy(b[n+1:], o.Cigar) + 2
				b[n-1] = '"'
			} else { // no room was reserved for escapes
				dst = slices.Grow(b[:n], len(quoted)+resultMax)
				b = dst[:cap(dst)]
				n += copy(b[n:], quoted)
			}
		}
		if o.TraceBytes != 0 {
			n = putInt(b, putKey(b, n, keyTB, 6), int64(o.TraceBytes))
		}
		b[n] = '}'
		dst = b[:n+1]
	}
	return append(dst, "]}}\n"...)
}

// putKey stores the first size bytes of the little-endian word k at b[n:]
// (writing all 8) and returns the index after them.
func putKey(b []byte, n int, k uint64, size int) int {
	binary.LittleEndian.PutUint64(b[n:], k)
	return n + size
}

// pow10 holds 10^i for i in [0, 19], every power of ten a uint64 holds.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digitPairs is "00" through "99", two bytes a pair.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859606162636465666768697071727374757677787980" +
	"81828384858687888990919293949596979899"

// putInt writes v at b[n:] in strconv.AppendInt's base-10 form and returns
// the index after it. The digit count comes first (bits.Len64 × log10 2,
// corrected by one table compare), then the digits are written from the
// last, two per division.
func putInt(b []byte, n int, v int64) int {
	u := uint64(v)
	if v < 0 {
		b[n] = '-'
		n++
		u = -u
	}
	x := u | 1 // the digit count of 0 is 1's; no other count moves
	d := bits.Len64(x) * 1233 >> 12
	if x >= pow10[d] {
		d++
	}
	end, i := n+d, n+d
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		b[i], b[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return end
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

// quoteString returns nil when s goes out verbatim between quotes — a
// valid CIGAR is digits and "=XID" — and otherwise encoding/json's quoted
// form of s.
func quoteString(s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			quoted, _ := json.Marshal(s) // strings always marshal
			return quoted
		}
	}
	return nil
}

// jsonPlain marks the bytes encoding/json writes unescaped in a string:
// printable ASCII except '"', '\\' and the HTML-sensitive '<', '>', '&'.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		plain[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return plain
}()

// ParseChunkLine decodes a chunk line AppendChunkLine wrote: the chunk's
// scalar fields (Results left nil) and its results as AlignOuts, in a
// slice sized from the line, every CIGAR re-validated by alignment.Parse.
// ok is false for any other input: a different record type, reordered or
// unknown keys, whitespace, string escapes, a number not in canonical
// form, an explicit zero where the encoder omits the field, an invalid
// CIGAR, trailing bytes. The caller then decodes the line with
// encoding/json, which accepts a superset and reports what is actually
// wrong with a corrupt line.
//
// A result is read a word at a time: each key is one 8-byte load and
// compare, each number one load converted by int64's SWAR step, and the
// result is written in place in the slice. A valid line has at least 12
// bytes left at every result key, so a key with fewer than 8 left is a
// mismatch, not a case for a byte loop.
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
	// Every result opens with the line's next '{', so their count bounds
	// the results and a valid line fills the slice exactly.
	outs = make([]ipukernel.AlignOut, 0, bytes.Count(line[p.i:], []byte{'{'}))
	if !p.opt(`]`) {
		for {
			if len(outs) == cap(outs) { // a ',' with no '{' after it
				p.bad = true
				break
			}
			outs = outs[:len(outs)+1]
			p.result(&outs[len(outs)-1])
			if p.bad || !p.opt(`,`) {
				break
			}
		}
		p.lit(`]`)
	}
	p.lit("}}\n")
	if p.bad || p.i != len(line) {
		return Chunk{}, nil, false
	}
	return c, outs, true
}

// result reads one result object into o.
func (p *lineParser) result(o *ipukernel.AlignOut) {
	p.key(keyID, 6)
	o.GlobalID = p.int()
	p.commaKey(keyScore)
	o.Score = p.int()
	p.key(keyLS, 6)
	o.LeftScore = p.int()
	p.key(keyRS, 6)
	o.RightScore = p.int()
	p.key(keyBH, 6)
	o.BegH = p.int()
	p.key(keyBV, 6)
	o.BegV = p.int()
	p.key(keyEH, 6)
	o.EndH = p.int()
	p.key(keyEV, 6)
	o.EndV = p.int()
	p.commaKey(keyCells)
	o.Cells = p.int64()
	p.key(keyAD, 6)
	o.Antidiagonals = p.int()
	p.key(keyBand, 8)
	o.MaxLiveBand = p.int()
	if p.opt(`}`) { // an untraced, unflagged result ends here
		return
	}
	// The optional tail, in the encoder's order. Its four keys differ in
	// their fourth byte (,"cLamped ,"fAiled ,"cIgar ,"tB), so one byte
	// says which one the line holds; what is out of order or repeated
	// then fails the next key.
	if p.tailKey('l') {
		p.lit(`,"clamped":true`)
		o.Clamped = true
	}
	if p.tailKey('a') {
		p.lit(`,"failed":true`)
		o.Failed = true
	}
	if p.tailKey('i') {
		p.lit(`,"cigar":"`)
		o.Cigar = p.cigar()
	}
	if p.tailKey('b') {
		p.key(keyTB, 6)
		o.TraceBytes = p.int()
		p.bad = p.bad || o.TraceBytes == 0
	}
	p.lit(`}`)
}

// lineParser is a cursor over one line. The first mismatch sets bad;
// steps after it stay in bounds on any input and the line is declined.
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

// key requires the size-byte key (size ≤ 8) whose little-endian word is
// k, in one load and compare.
func (p *lineParser) key(k uint64, size int) {
	if len(p.b)-p.i < 8 || binary.LittleEndian.Uint64(p.b[p.i:])&(^uint64(0)>>(64-8*size)) != k {
		p.bad = true
		return
	}
	p.i += size
}

// commaKey requires ',' followed by the 8-byte key k.
func (p *lineParser) commaKey(k uint64) {
	if len(p.b)-p.i < 9 || p.b[p.i] != ',' || binary.LittleEndian.Uint64(p.b[p.i+1:]) != k {
		p.bad = true
		return
	}
	p.i += 9
}

// tailKey reports whether the input continues with ',' and a fourth byte
// c — the second letter of one tail key. The caller compares the whole
// key.
func (p *lineParser) tailKey(c byte) bool {
	return !p.bad && len(p.b)-p.i >= 4 && p.b[p.i] == ',' && p.b[p.i+3] == c
}

// int64 reads an integer in the one form strconv.AppendInt writes: an
// optional '-', no leading zeros, no "-0". Magnitudes within a digit of
// overflow are declined rather than checked exactly.
//
// Up to eight digits take one step: the word's bytes XOR '0' are 0–9
// exactly where they are digits, adding 0x76 sets the top bit of every
// other byte (a carry only leaves a byte that is already a non-digit, so
// the lowest set bit is exact), its trailing zeros count the digits, and
// three multiply-and-mask steps fold the digits, shifted to the top of the
// word, into one number. Past eight digits, or with fewer than 8 bytes
// left, the byte loop carries on with the overflow rule.
func (p *lineParser) int64() int64 {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	more := true // the byte loop has digits left to read
	if len(b)-i >= 8 {
		w := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
		digits := bits.TrailingZeros64((w+0x7676767676767676|w)&0x8080808080808080) >> 3
		w <<= 64 - 8*digits // a shift by 64 leaves 0
		w = (w * (10<<8 + 1)) >> 8 & 0x00ff00ff00ff00ff
		w = (w * (100<<16 + 1)) >> 16 & 0x0000ffff0000ffff
		w = (w * (10000<<32 + 1)) >> 32
		n, i, more = int64(w), i+digits, digits == 8
	}
	for ; more && i < len(b) && b[i]-'0' < 10; i++ {
		if n > (math.MaxInt64-9)/10 {
			p.i, p.bad = i, true
			return 0
		}
		n = n*10 + int64(b[i]-'0')
	}
	p.i = i
	if digits := i - start; digits == 0 || b[start] == '0' && (digits > 1 || neg) {
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

// cigar reads a non-empty CIGAR up to its closing quote, checking the
// grammar alignment.Parse accepts in the same pass — runs of a positive
// length without leading zeros, at most 19 digits and no more than an int
// holds, then an operation other than the run before's — and copies it
// once. An escape, or any byte outside the CIGAR alphabet, declines the
// line, so no separate string grammar is needed.
func (p *lineParser) cigar() alignment.Cigar {
	b, i := p.b, p.i
	prev := alignment.Op(0)
	for !p.bad {
		start := i
		var u uint64 // any 19 digits fit; the checks below are Parse's
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			u = u*10 + uint64(b[i]-'0')
		}
		if i == start || b[start] == '0' || i-start > 19 || u > math.MaxInt || i == len(b) {
			break
		}
		op := alignment.Op(b[i])
		if !op.Valid() || op == prev {
			break
		}
		prev = op
		if i++; i < len(b) && b[i] == '"' {
			c := alignment.Cigar(b[p.i:i])
			p.i = i + 1
			return c
		}
	}
	p.bad = true
	return ""
}
