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

// guarded hands out test operands that touch an unmapped page, so that a
// read or write one element outside them faults instead of silently
// touching a neighbour. release unmaps them all: a test makes thousands,
// and every one is two kernel mappings.
type guarded struct {
	t    testing.TB
	maps [][]byte
}

func (g *guarded) release() {
	for _, mem := range g.maps {
		_ = syscall.Munmap(mem) // test memory; nothing to do about a failed unmap
	}
}

// mapping returns n writable bytes that end exactly at an unmapped page —
// or, with front set, that start right behind one.
func (g *guarded) mapping(n int, front bool) []byte {
	g.t.Helper()
	page := syscall.Getpagesize()
	data := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		g.t.Fatalf("mmap: %v", err)
	}
	g.maps = append(g.maps, mem)
	guard, b := mem[data:], mem[data-n:data:data]
	if front {
		guard, b = mem[:page], mem[page:page+n:page+n]
	}
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		g.t.Fatalf("mprotect: %v", err)
	}
	return b
}

// bytes returns n bytes ending at an unmapped page.
func (g *guarded) bytes(n int) []byte { return g.mapping(n, false) }

// scores returns n int32 cells ending at an unmapped page.
func (g *guarded) scores(n int) []int32 {
	b := g.bytes(4 * n)
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// pair draws cnt symbol pairs from alpha, equal about half the time, each
// slice ending at the last byte before an unmapped page — or, with front
// set, starting at the first byte behind one.
func (g *guarded) pair(rng *rand.Rand, cnt int, alpha []byte, front bool) (hq, vq []byte) {
	hq, vq = g.mapping(cnt, front), g.mapping(cnt, front)
	for i := range hq {
		hq[i] = alpha[rng.Intn(len(alpha))]
		vq[i] = hq[i]
		if rng.Intn(2) == 0 {
			vq[i] = alpha[rng.Intn(len(alpha))]
		}
	}
	return hq, vq
}

// rowLinearRef is the linear row recurrence at its plainest — the oracle
// for the vector body. d1[k] and d1[k+1] are cell k's gap predecessors;
// out may alias d2 shifted left, so d2[k] is read before out[k] is stored.
// It returns the row maximum.
func rowLinearRef(out, d2, d1 []int32, hq, vq []byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best int32) {
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
	return best
}

// dnaWild is the alphabet of the Simple-scorer cases: the four bases, the
// wildcard 'N' (twice, so runs of it and 'N' against 'N' turn up), lowercase,
// 0x00 and bytes ≥ 0x80 — which a signed byte compare or a sign-extended
// table index would get wrong.
var dnaWild = []byte("ACGTNNacgn\x00\x80\xce\xff")

// proteinHigh is the alphabet of the Matrix-scorer cases: amino acids plus
// bytes ≥ 0x80, which BLOSUM62 scores like 'X' — and which a sign-extended
// byte load or a signed table index would look up outside the table.
var proteinHigh = []byte("ARNDCQEGHILKMFPSTWYV\x80\x9c\xc3\xff")

// rowForm is one way a row body can be handed its similarity: a scorer
// in the form rowSimOf resolves for it, or — gather — forced through the
// table, so that the two forms meet on identical Simple operands.
type rowForm struct {
	name   string
	scorer scoring.Scorer
	gather bool
	alpha  []byte
}

func (f rowForm) sim() rowSim {
	if f.gather {
		return rowSim{tab: f.scorer.Table()}
	}
	return rowSimOf(f.scorer)
}

var rowForms = []rowForm{
	{"dna/compare", scoring.DNADefault, false, dnaWild},
	{"simple(+2/-3)/compare", scoring.NewSimple(2, -3), false, dnaWild},
	{"dna/table", scoring.DNADefault, true, dnaWild},
	{"blosum62/table", scoring.Blosum62, false, proteinHigh},
}

// TestRowFormFollowsScorer: the scorer's own type picks the form — Simple
// schemes compare, a Matrix is gathered.
func TestRowFormFollowsScorer(t *testing.T) {
	if sim := rowSimOf(scoring.NewSimple(5, -4)); sim != (rowSim{match: 5, mismatch: -4, wildcard: 'N'}) {
		t.Errorf("rowSimOf(simple(+5/-4)) = %+v, want the compare form", sim)
	}
	if sim := rowSimOf(scoring.Blosum62); sim != (rowSim{tab: scoring.Blosum62.Table()}) {
		t.Errorf("rowSimOf(BLOSUM62) = %+v, want the table gather", sim)
	}
}

// rowCase is one row's operand layout, as linearSweep would hand it over.
type rowCase struct {
	cnt     int  // interior cells, ≥ 1
	shift   int  // cl − d2cl: how far out trails d2 when in place
	inPlace bool // out aliases d2 (Restricted2) or is a third buffer
	form    int  // index into rowForms
	seqHead bool // the sequences start behind an unmapped page instead of ending at one
	limit   int32
}

// checkRow runs the vector body and the oracle over identical buffers and
// compares everything they may touch. Every operand ends flush against an
// unmapped page: d1 and the sequences at their last element (or, seqHead,
// the sequences begin right behind one), the d2 buffer (which in place is
// also out) rowSlack cells behind the row's last cell, a third-buffer out
// at its last cell.
func checkRow(t testing.TB, rng *rand.Rand, c rowCase) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := guarded{t: t}
	defer g.release()

	form := rowForms[c.form]
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
	d1 := fill(g.scores(1 + c.cnt))
	hq, vq := g.pair(rng, c.cnt, form.alpha, c.seqHead)
	wantBuf := fill(g.scores(lead + c.cnt + rowSlack))
	// d2[−1] in memory is never the diagonal predecessor of cell 0: with
	// cl = 0 the top-boundary store has replaced it.
	wantBuf[lead-1] = 0x5a5a5a5a
	gotBuf := g.scores(len(wantBuf))
	copy(gotBuf, wantBuf)
	wantD2, gotD2 := wantBuf[lead:], gotBuf[lead:]
	// In place the row lies in the d2 buffer, shift cells to the left; the
	// third buffer is an allocation of its own, compared whole as well.
	wantRow, gotRow := wantBuf[lead-c.shift:], gotBuf[lead-c.shift:]
	var wantThird, gotThird []int32
	if !c.inPlace {
		wantThird = fill(g.scores(lead + c.cnt))
		gotThird = g.scores(len(wantThird))
		copy(gotThird, wantThird)
		wantRow, gotRow = wantThird[lead:], gotThird[lead:]
	}
	wlast, gap := val(), int32(-1-rng.Intn(3))
	sim := form.sim()

	wantBest := rowLinearRef(wantRow, wantD2, d1, hq, vq, form.scorer.Table(), c.cnt, wlast, gap, c.limit)
	gotBest := rowLinearVec(&gotRow[0], &gotD2[0], &d1[1], &hq[0], &vq[0], &sim, c.cnt, wlast, gap, c.limit)

	if gotBest != wantBest {
		t.Errorf("%s %+v: rowBest = %d, want %d", form.name, c, gotBest, wantBest)
	}
	// The whole d2 allocation — lead cells, row, slack — and the whole
	// third buffer: the stored row matches and nothing around it moved.
	if !slices.Equal(gotBuf, wantBuf) {
		t.Errorf("%s %+v: d2 buffer differs:\n got  %v\n want %v", form.name, c, gotBuf, wantBuf)
	}
	if !slices.Equal(gotThird, wantThird) {
		t.Errorf("%s %+v: third buffer differs:\n got  %v\n want %v", form.name, c, gotThird, wantThird)
	}
}

// rowLimits are the prune limits worth pinning: mid-range (some cells
// pruned), below every value (none), above every value (the all-pruned
// row) and the negInf/2 clamp of pruneLimit.
var rowLimits = []int32{-8, -1000, 1000, negInf32 / 2}

// maxRowCnt covers a lone tail of every length, then every tail length
// behind one, two and three whole vectors.
const maxRowCnt = 3*rowLanes + 7

// TestRowKernelMatchesGeneric drives the vector row body and the scalar
// recurrence over the same randomized buffers: every row length from a
// single cell through three vectors and a seven-cell tail, every in-place
// alias distance up to a whole vector (0 is the one where the store
// overwrites the next vector's diagonal operand) and the three-buffer
// layout, a d2[−1] that memory no longer holds, every operand ending at an
// unmapped page and the sequences also starting behind one, every prune
// regime, and both similarity forms over wildcards and bytes ≥ 0x80.
func TestRowKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(91))
	layouts := []rowCase{{inPlace: false}}
	for shift := 0; shift <= rowLanes; shift++ {
		layouts = append(layouts, rowCase{inPlace: true, shift: shift})
	}
	for cnt := 1; cnt <= maxRowCnt; cnt++ {
		for _, c := range layouts {
			for _, limit := range rowLimits {
				for form := range rowForms {
					for _, seqHead := range []bool{false, true} {
						c.cnt, c.limit, c.form, c.seqHead = cnt, limit, form, seqHead
						checkRow(t, rng, c)
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
	f.Add(int64(5), uint8(3), uint8(0), uint8(1))
	f.Add(int64(6), uint8(7), uint8(2), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, cnt, shift, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		checkRow(t, rand.New(rand.NewSource(seed)), rowCase{
			cnt:     max(int(cnt), 1),
			shift:   int(shift % 10),
			inPlace: flags&1 != 0,
			form:    int(flags >> 1 & 3),
			limit:   rowLimits[flags>>3&3],
			seqHead: flags&32 != 0,
		})
	})
}

// vectorTrial draws one extension for the vector-on/vector-off tests: a
// noisy DNA pair under DNADefault or simple(+2/−3) with wildcards and
// lowercase sprinkled in, or every third trial a BLOSUM62 pair over bytes
// ≥ 0x80, under either linear layout and a clamping, a roomy or no δb.
func vectorTrial(rng *rand.Rand, trial int) (h, v []byte, p Params) {
	h = randDNA(rng, 1+rng.Intn(400))
	v = mutate(rng, h, 0.15)
	p = Params{Scorer: scoring.DNADefault, Gap: -1, X: 5 + rng.Intn(40)}
	switch trial % 3 {
	case 0:
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
	case 1:
		p.Scorer, p.Gap = scoring.NewSimple(2, -3), -2
		fallthrough
	default:
		sprinkleWild(rng, h)
		sprinkleWild(rng, v)
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
// their last element (seqHead: the sequences begin right behind one
// instead) — and the wlast argument is a value the d2[−1] slot in memory
// does not hold. It returns rowCodesRef's tie counts.
func checkCodesRow(t testing.TB, rng *rand.Rand, cnt, formIdx int, seqHead bool, limit int32) [2]int {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := guarded{t: t}
	defer g.release()

	form := rowForms[formIdx]
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
	d1 := fill(g.scores(1 + cnt))
	d2 := fill(g.scores(lead + cnt + rowSlack))
	wlast := d2[lead-1]
	d2[lead-1] = 0x5a5a5a5a
	hq, vq := g.pair(rng, cnt, form.alpha, seqHead)
	wantOut := fill(g.scores(lead + cnt))
	gotOut := g.scores(lead + cnt)
	copy(gotOut, wantOut)
	wantCodes, gotCodes := g.bytes(lead+cnt), g.bytes(lead+cnt)
	for i := range wantCodes {
		wantCodes[i], gotCodes[i] = 0xee, 0xee
	}
	gap := int32(-1 - rng.Intn(2))

	sim := form.sim()

	wantBest, ties := rowCodesRef(wantOut[lead:], wantCodes[lead:], d2[lead:], d1, hq, vq, form.scorer.Table(), cnt, wlast, gap, limit)
	gotBest := rowCodesVec(&gotOut[lead], &d2[lead], &d1[1], &hq[0], &vq[0], &sim, cnt, wlast, gap, limit, &gotCodes[lead])

	if gotBest != wantBest {
		t.Errorf("%s cnt %d limit %d: rowBest = %d, want %d", form.name, cnt, limit, gotBest, wantBest)
	}
	if !slices.Equal(gotOut, wantOut) {
		t.Errorf("%s cnt %d limit %d: stored row differs:\n got  %v\n want %v", form.name, cnt, limit, gotOut, wantOut)
	}
	if !slices.Equal(gotCodes, wantCodes) {
		t.Errorf("%s cnt %d limit %d: direction codes differ:\n got  %v\n want %v", form.name, cnt, limit, gotCodes, wantCodes)
	}
	return ties
}

// TestRowCodesKernelMatchesGeneric drives the recording row body and the
// scalar rule over the same randomized operands: every row length from a
// single cell through three vectors and a seven-cell tail (so every tail
// length, alone and behind whole vectors), every prune regime, both
// similarity forms, and — checked, not hoped for — cells where the gap
// move ties with the diagonal and cells whose two gap sources are equal.
func TestRowCodesKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(93))
	var ties [2]int
	for cnt := 1; cnt <= maxRowCnt; cnt++ {
		for _, limit := range rowLimits {
			for form := range rowForms {
				for _, seqHead := range []bool{false, true} {
					got := checkCodesRow(t, rng, cnt, form, seqHead, limit)
					ties[0], ties[1] = ties[0]+got[0], ties[1]+got[1]
				}
			}
		}
	}
	if ties[0] == 0 || ties[1] == 0 {
		t.Fatalf("tie cells exercised: gap==diag %d, equal gap sources %d; want both > 0", ties[0], ties[1])
	}
}

// FuzzRowCodesKernel is TestRowCodesKernelMatchesGeneric under the
// fuzzer's choice of row length, prune regime, form and operand content.
func FuzzRowCodesKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(15), uint8(3))
	f.Add(int64(3), uint8(41), uint8(4))
	f.Add(int64(4), uint8(200), uint8(7))
	f.Add(int64(5), uint8(5), uint8(9))
	f.Add(int64(6), uint8(1), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, cnt, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		checkCodesRow(t, rand.New(rand.NewSource(seed)), max(int(cnt), 1), int(flags>>2&3), flags&16 != 0, rowLimits[flags&3])
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

// TestGrowBufKeepsRowSlack pins the capacity the vector body's whole-vector
// diagonal loads rely on, for fresh and reused buffers.
func TestGrowBufKeepsRowSlack(t *testing.T) {
	var b []int32
	for _, n := range []int{1, 17, 5, 256, 255} {
		b = growBuf(b, n)
		if len(b) != n+2*bufPad || cap(b)-len(b) < rowSlack {
			t.Errorf("growBuf(%d): len %d cap %d, want len %d and %d spare", n, len(b), cap(b), n+2*bufPad, rowSlack)
		}
	}
}
