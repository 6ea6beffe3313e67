//go:build amd64 && !purego && unix

package core

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// guardedBytes returns n writable bytes that end exactly at an unmapped
// page, so a read or write one byte past the slice faults instead of
// silently touching a neighbour.
func guardedBytes(t testing.TB, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	data := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return mem[data-n : data : data]
}

// guardedScores is guardedBytes for n int32 cells.
func guardedScores(t testing.TB, n int) []int32 {
	if n == 0 {
		return nil
	}
	b := guardedBytes(t, 4*n)
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// rowLinearRef is the linear row recurrence at its plainest — the oracle
// for the vector body. d1[k] and d1[k+1] are cell k's gap predecessors;
// out may alias d2 shifted left, so d2[k] is read before out[k] is stored.
// It returns the row maximum and the carry for cell n.
func rowLinearRef(out, d2, d1 []int32, hq, vq []byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best, carry int32) {
	best = negInf32
	for k := 0; k < n; k++ {
		wnew := d2[k]
		s := wlast + int32(tab[hq[k]][vq[k]])
		if g := max(d1[k], d1[k+1]) + gap; g > s {
			s = g
		}
		if s < limit {
			s = negInf32
		}
		best = max(best, s)
		out[k] = s
		wlast = wnew
	}
	return best, wlast
}

// rowCase is one row's operand layout, as linearSweep would hand it over.
type rowCase struct {
	cnt     int  // interior cells
	shift   int  // cl − d2cl: how far out trails d2 when in place
	inPlace bool // out aliases d2 (Restricted2) or is a third buffer
	protein bool // BLOSUM62 over proteinHigh instead of DNADefault over ACGT
	limit   int32
}

// proteinHigh is the alphabet of the Matrix-scorer cases: amino acids plus
// bytes ≥ 0x80, which BLOSUM62 scores like 'X' — and which a sign-extended
// byte load or a signed table index would look up outside the table.
var proteinHigh = []byte("ARNDCQEGHILKMFPSTWYV\x80\x9c\xc3\xff")

// checkRow runs the vector body (whole vectors, the oracle finishing the
// remainder from the carry — the split linearSweep makes) and the oracle
// alone over identical buffers and compares everything they may touch.
// Every buffer ends flush against an unmapped page: the d2 buffer rowSlack
// cells behind the row's last cell, the sequences at their last byte.
func checkRow(t testing.TB, rng *rand.Rand, c rowCase) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	tab, alpha := scoring.DNADefault.Table(), []byte("ACGT")
	if c.protein {
		tab, alpha = scoring.Blosum62.Table(), proteinHigh
	}
	// Cell values: a mix of live scores around the limit and pruned cells.
	val := func() int32 {
		if rng.Intn(4) == 0 {
			return negInf32
		}
		return int32(rng.Intn(61) - 30)
	}
	fill := func(b []int32) []int32 {
		for i := range b {
			b[i] = val()
		}
		return b
	}
	const lead = 12 // cells before the row: room for the largest shift and d2[−1]
	d1 := fill(guardedScores(t, 1+c.cnt))
	hq, vq := guardedBytes(t, c.cnt), guardedBytes(t, c.cnt)
	for i := range hq {
		hq[i], vq[i] = alpha[rng.Intn(len(alpha))], alpha[rng.Intn(len(alpha))]
	}
	wantBuf := fill(guardedScores(t, lead+c.cnt+rowSlack))
	// d2[−1] in memory is never the diagonal predecessor of cell 0: with
	// cl = 0 the top-boundary store has replaced it.
	wantBuf[lead-1] = 0x5a5a5a5a
	gotBuf := guardedScores(t, len(wantBuf))
	copy(gotBuf, wantBuf)
	wantOut, gotOut := wantBuf[lead-c.shift:], gotBuf[lead-c.shift:]
	if !c.inPlace {
		wantOut = fill(guardedScores(t, c.cnt))
		gotOut = guardedScores(t, c.cnt)
		copy(gotOut, wantOut)
	}
	wantD2, gotD2 := wantBuf[lead:], gotBuf[lead:]
	wlast, gap := val(), int32(-1-rng.Intn(3))

	wantBest, wantCarry := rowLinearRef(wantOut, wantD2, d1, hq, vq, tab, c.cnt, wlast, gap, c.limit)

	gotBest, gotCarry := negInf32, wlast
	nv := c.cnt &^ (rowLanes - 1)
	if nv > 0 {
		gotBest, gotCarry = rowLinearVec(&gotOut[0], &gotD2[0], &d1[1], &hq[0], &vq[0], tab, nv, wlast, gap, c.limit)
	}
	tailBest, gotCarry := rowLinearRef(gotOut[nv:], gotD2[nv:], d1[nv:], hq[nv:], vq[nv:], tab, c.cnt-nv, gotCarry, gap, c.limit)
	gotBest = max(gotBest, tailBest)

	if gotBest != wantBest || gotCarry != wantCarry {
		t.Errorf("%+v: rowBest/carry = %d/%d, want %d/%d", c, gotBest, gotCarry, wantBest, wantCarry)
	}
	// The whole d2 allocation — lead cells, row, slack — and, apart, the
	// third buffer: the stored row matches and nothing around it moved.
	if !slices.Equal(gotBuf, wantBuf) {
		t.Errorf("%+v: d2 buffer differs:\n got  %v\n want %v", c, gotBuf, wantBuf)
	}
	if !c.inPlace && !slices.Equal(gotOut, wantOut) {
		t.Errorf("%+v: stored row differs:\n got  %v\n want %v", c, gotOut, wantOut)
	}
}

// rowLimits are the prune limits worth pinning: mid-range (some cells
// pruned), below every value (none), above every value (the all-pruned
// row) and the negInf/2 clamp of pruneLimit.
var rowLimits = []int32{-8, -1000, 1000, negInf32 / 2}

// TestRowKernelMatchesGeneric drives the vector row body and the scalar
// recurrence over the same randomized buffers: every row length through
// five vectors, every in-place alias distance (0 is the one where the
// store overwrites the next vector's diagonal operand) and the
// three-buffer layout, a d2[−1] that memory no longer holds, rows ending
// at the last byte of h and v, every prune regime, and a scorer indexed by
// bytes ≥ 0x80.
func TestRowKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(91))
	for cnt := 0; cnt <= 40; cnt++ {
		for _, shift := range []int{0, 1, 2, 9} {
			for _, inPlace := range []bool{true, false} {
				for _, limit := range rowLimits {
					for _, protein := range []bool{false, true} {
						checkRow(t, rng, rowCase{cnt: cnt, shift: shift, inPlace: inPlace, protein: protein, limit: limit})
					}
				}
			}
		}
	}
}

// FuzzRowKernel is TestRowKernelMatchesGeneric under the fuzzer's choice
// of layout and buffer content.
func FuzzRowKernel(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), uint8(1))
	f.Add(int64(2), uint8(40), uint8(9), uint8(0))
	f.Add(int64(3), uint8(8), uint8(1), uint8(7))
	f.Add(int64(4), uint8(200), uint8(0), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, cnt, shift, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		checkRow(t, rand.New(rand.NewSource(seed)), rowCase{
			cnt:     int(cnt),
			shift:   int(shift % 10),
			inPlace: flags&1 != 0,
			protein: flags&2 != 0,
			limit:   rowLimits[flags>>2&3],
		})
	})
}

// vectorTrial draws one extension for the vector-on/vector-off tests: a
// noisy DNA pair, or every third trial a BLOSUM62 pair over bytes ≥ 0x80,
// under either linear layout and a clamping, a roomy or no δb.
func vectorTrial(rng *rand.Rand, trial int) (h, v []byte, p Params) {
	h = randDNA(rng, 1+rng.Intn(400))
	v = mutate(rng, h, 0.15)
	p = Params{Scorer: scoring.DNADefault, Gap: -1, X: 5 + rng.Intn(40)}
	if trial%3 == 0 {
		for i := range h {
			h[i] = proteinHigh[rng.Intn(len(proteinHigh))]
		}
		v = slices.Clone(h)
		for i := range v {
			if rng.Intn(6) == 0 {
				v[i] = proteinHigh[rng.Intn(len(proteinHigh))]
			}
		}
		p.Scorer, p.Gap = scoring.Blosum62, -4
	}
	p.Algo = []Algo{AlgoRestricted2, AlgoStandard3}[trial%2]
	p.DeltaB = []int{0, 12, 256}[rng.Intn(3)]
	return h, v, p
}

// TestVectorSweepMatchesGenericSweep runs whole extensions with the
// vector row body on and off: Result, Stats and the score buffers left
// behind must be identical, for both layouts, clamped and unclamped
// windows, every view direction and both scorers.
func TestVectorSweepMatchesGenericSweep(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	defer func() { rowVec = true }()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 300; trial++ {
		h, v, p := vectorTrial(rng, trial)
		hv, vv := View{h, trial%4 >= 2}, View{v, trial%8 >= 4}
		var vec, gen Workspace
		rowVec = true
		a := vec.align(hv, vv, p)
		rowVec = false
		b := gen.align(hv, vv, p)
		if a != b {
			t.Fatalf("trial %d %v: vector %+v != generic %+v", trial, p.Algo, a, b)
		}
		for i, bufs := range [][2][]int32{{vec.wide.b0, gen.wide.b0}, {vec.wide.b1, gen.wide.b1}, {vec.wide.b2, gen.wide.b2}} {
			if !slices.Equal(bufs[0], bufs[1]) {
				t.Fatalf("trial %d %v: score buffer b%d differs after the sweep", trial, p.Algo, i)
			}
		}
	}
}

// rowCodesRef is rowLinearRef for the recording row, which never runs in
// place: the plain recurrence plus fusedLinear's direction rule — the gap
// move only when it strictly beats the diagonal, up on a tie between the
// gap sources, codeNone where pruned. ties counts the cells whose gap move
// equalled the diagonal and those whose gap sources were equal.
func rowCodesRef(out []int32, codes []byte, d2, d1 []int32, hq, vq []byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best int32, ties [2]int) {
	best = negInf32
	for k := 0; k < n; k++ {
		s, c := wlast+int32(tab[hq[k]][vq[k]]), codeDiag
		g := max(d1[k], d1[k+1]) + gap
		if g == s {
			ties[0]++
		}
		if d1[k] == d1[k+1] {
			ties[1]++
		}
		if g > s {
			s, c = g, codeUp
			if d1[k+1] > d1[k] {
				c = codeLeft
			}
		}
		if s < limit {
			s, c = negInf32, codeNone
		}
		best = max(best, s)
		out[k], codes[k] = s, c
		wlast = d2[k]
	}
	return best, ties
}

// checkCodesRow runs the recording row body and rowCodesRef over
// identical operands and compares everything the body may write: the
// whole out allocation (cells before the row included), every code byte
// and the row maximum. Every operand ends flush against an unmapped page
// — d2 rowSlack cells behind the row, out, codes, d1 and the sequences at
// their last element — and the wlast argument is a value the d2[−1] slot
// in memory does not hold. It returns rowCodesRef's tie counts.
func checkCodesRow(t testing.TB, rng *rand.Rand, cnt int, protein bool, limit int32) [2]int {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	tab, alpha := scoring.DNADefault.Table(), []byte("ACGT")
	if protein {
		tab, alpha = scoring.Blosum62.Table(), proteinHigh
	}
	// A narrow value range, so that gap and diagonal moves tie and
	// neighbouring d1 cells are equal in most rows.
	val := func() int32 {
		if rng.Intn(5) == 0 {
			return negInf32
		}
		return int32(rng.Intn(7) - 3)
	}
	fill := func(b []int32) []int32 {
		for i := range b {
			b[i] = val()
		}
		return b
	}
	const lead = 3
	d1 := fill(guardedScores(t, 1+cnt))
	d2 := fill(guardedScores(t, lead+cnt+rowSlack))
	wlast := d2[lead-1]
	d2[lead-1] = 0x5a5a5a5a
	hq, vq := guardedBytes(t, cnt), guardedBytes(t, cnt)
	for i := range hq {
		hq[i], vq[i] = alpha[rng.Intn(len(alpha))], alpha[rng.Intn(len(alpha))]
	}
	wantOut := fill(guardedScores(t, lead+cnt))
	gotOut := guardedScores(t, lead+cnt)
	copy(gotOut, wantOut)
	wantCodes, gotCodes := guardedBytes(t, cnt), guardedBytes(t, cnt)
	for i := range wantCodes {
		wantCodes[i], gotCodes[i] = 0xee, 0xee
	}
	gap := int32(-1 - rng.Intn(2))

	wantBest, ties := rowCodesRef(wantOut[lead:], wantCodes, d2[lead:], d1, hq, vq, tab, cnt, wlast, gap, limit)
	gotBest := rowCodesVec(&gotOut[lead], &d2[lead], &d1[1], &hq[0], &vq[0], tab, cnt, wlast, gap, limit, &gotCodes[0])

	if gotBest != wantBest {
		t.Errorf("cnt %d limit %d: rowBest = %d, want %d", cnt, limit, gotBest, wantBest)
	}
	if !slices.Equal(gotOut, wantOut) {
		t.Errorf("cnt %d limit %d: stored row differs:\n got  %v\n want %v", cnt, limit, gotOut, wantOut)
	}
	if !slices.Equal(gotCodes, wantCodes) {
		t.Errorf("cnt %d limit %d: direction codes differ:\n got  %v\n want %v", cnt, limit, gotCodes, wantCodes)
	}
	return ties
}

// TestRowCodesKernelMatchesGeneric drives the recording row body and the
// scalar rule over the same randomized operands: every row length from
// one vector through six (so every overlapped-tail offset), every prune
// regime, both scorers, and — checked, not hoped for — cells where the gap
// move ties with the diagonal and cells whose two gap sources are equal.
func TestRowCodesKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(93))
	var ties [2]int
	for cnt := rowLanes; cnt <= 48; cnt++ {
		for _, limit := range rowLimits {
			for _, protein := range []bool{false, true} {
				got := checkCodesRow(t, rng, cnt, protein, limit)
				ties[0], ties[1] = ties[0]+got[0], ties[1]+got[1]
			}
		}
	}
	if ties[0] == 0 || ties[1] == 0 {
		t.Fatalf("tie cells exercised: gap==diag %d, equal gap sources %d; want both > 0", ties[0], ties[1])
	}
}

// FuzzRowCodesKernel is TestRowCodesKernelMatchesGeneric under the
// fuzzer's choice of row length, prune regime, scorer and operand content.
func FuzzRowCodesKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(15), uint8(3))
	f.Add(int64(3), uint8(41), uint8(4))
	f.Add(int64(4), uint8(200), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, cnt, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		checkCodesRow(t, rand.New(rand.NewSource(seed)), max(int(cnt), rowLanes), flags&4 != 0, rowLimits[flags&3])
	})
}

// recorded is one recording's whole outcome, comparable with ==.
type recorded struct {
	r   Result
	tr  Trace
	err error
}

// vectorAndGeneric runs run on a fresh workspace with the vector row body
// on, then on another with it off.
func vectorAndGeneric[T any](run func(ws *Workspace) T) (vec, gen T, vw, gw *Workspace) {
	defer func() { rowVec = true }()
	vw, gw = new(Workspace), new(Workspace)
	vec = run(vw)
	rowVec = false
	gen = run(gw)
	return vec, gen, vw, gw
}

// TestVectorRecordMatchesGenericRecord runs whole recordings with the
// vector row body on and off — the four view-direction pairs through
// record, and the seed-extension entry points on top — and requires the
// same Result and Stats, the same Trace (TraceBytes and CIGAR included)
// and the same recording, byte for byte: window index and packed codes.
// With rowVec off the Go loop in fusedLinear computes every cell, so this
// is the vector body against the production oracle itself.
func TestVectorRecordMatchesGenericRecord(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 240; trial++ {
		h, v, p := vectorTrial(rng, trial)
		hv, vv := View{h, trial%4 >= 2}, View{v, trial%8 >= 4}
		vec, gen, vw, gw := vectorAndGeneric(func(ws *Workspace) recorded {
			r, tr, err := ws.record(hv, vv, p, trial%16 >= 8)
			return recorded{r, tr, err}
		})
		if vec != gen || vec.err != nil {
			t.Fatalf("trial %d %v: record: vector %+v != generic %+v", trial, p.Algo, vec, gen)
		}
		if !slices.Equal(vw.tb.dirs, gw.tb.dirs) || !slices.Equal(vw.tb.cls, gw.tb.cls) || !slices.Equal(vw.tb.offs, gw.tb.offs) {
			t.Fatalf("trial %d %v: recorded directions differ", trial, p.Algo)
		}

		hOff, vOff := rng.Intn(len(h)+1), rng.Intn(len(v)+1)
		for side, extend := range []func(*Workspace, []byte, []byte, int, int, Params) (Result, Trace, error){
			(*Workspace).FusedExtendLeft, (*Workspace).FusedExtendRight,
		} {
			vec, gen, vw, gw := vectorAndGeneric(func(ws *Workspace) recorded {
				r, tr, err := extend(ws, h, v, hOff, vOff, p)
				return recorded{r, tr, err}
			})
			if vec != gen || vec.err != nil || !slices.Equal(vw.tb.dirs, gw.tb.dirs) {
				t.Fatalf("trial %d %v: fused extension side %d: vector %+v != generic %+v", trial, p.Algo, side, vec, gen)
			}
		}
		type seeded struct {
			r   SeedResult
			aln alignment.Alignment
			err error
		}
		seed := Seed{H: min(hOff, len(h)-1), V: min(vOff, len(v)-1), Len: 1}
		sv, sg, _, _ := vectorAndGeneric(func(ws *Workspace) seeded {
			r, aln, err := ws.TracebackSeed(h, v, seed, p)
			return seeded{r, aln, err}
		})
		if sv != sg || sv.err != nil {
			t.Fatalf("trial %d %v: TracebackSeed: vector %+v != generic %+v", trial, p.Algo, sv, sg)
		}
	}
}

// TestGrowBufKeepsRowSlack pins the capacity the vector body's diagonal
// preload relies on, for fresh and reused buffers.
func TestGrowBufKeepsRowSlack(t *testing.T) {
	var b []int32
	for _, n := range []int{1, 17, 5, 256, 255} {
		b = growBuf(b, n)
		if len(b) != n+2*bufPad || cap(b)-len(b) < rowSlack {
			t.Errorf("growBuf(%d): len %d cap %d, want len %d and %d spare", n, len(b), cap(b), n+2*bufPad, rowSlack)
		}
	}
}
