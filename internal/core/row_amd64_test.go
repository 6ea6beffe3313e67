//go:build amd64 && !purego && unix

package core

import (
	"errors"
	"fmt"
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

// scoresAt returns n int32 cells ending at an unmapped page or, with front
// set, starting right behind one.
func (g *guarded) scoresAt(n int, front bool) []int32 {
	b := g.mapping(4*n, front)
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
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

// rowLimits are the prune limits worth pinning: mid-range (some cells
// pruned), below every value (none), above every value (the all-pruned
// row) and the negInf/2 clamp of pruneLimit.
var rowLimits = []int32{-8, -1000, 1000, negInf32 / 2}

// maxRowCnt covers a lone tail of every length, then every tail length
// behind one, two and three whole vectors.
const maxRowCnt = 3*rowLanes + 7

// sweepFill is what checkSweep leaves in every cell and byte before the
// sweeps run, so that a store outside the documented ranges shows.
const sweepFill = 0x5a

// seatWorkspace hands w the buffers one m×n extension under p takes, at
// exactly the capacity growBuf and stage ask for and filled with sweepFill.
// With g set every one of them touches an unmapped page: its last element
// ends at one or, front, its first starts right behind one.
func seatWorkspace(w *Workspace, g *guarded, front bool, m, n int, p Params) {
	cells := linearCapacity(m, n, &p) + 2*bufPad + rowSlack
	scores := func() []int32 {
		b := make([]int32, cells)
		if g != nil {
			b = g.scoresAt(cells, front)
		}
		for i := range b {
			b[i] = sweepFill
		}
		return b[:0]
	}
	staged := func(n int) []byte {
		b := make([]byte, n+2*seqPad)
		if g != nil {
			b = g.mapping(len(b), front)
		}
		for i := range b {
			b[i] = sweepFill
		}
		return b[:0]
	}
	w.wide.b0, w.wide.b1, w.wide.b2 = scores(), scores(), scores()
	w.hq, w.vq = staged(m), staged(n)
}

// checkSweep runs one whole extension through sweepLinearVec, every score
// buffer and both staged operands against an unmapped page, and through
// linearSweep's Go loop, and compares everything either leaves behind: the
// Result with every Stats field, and each buffer to the end of its
// capacity. Then it does the same for the recording kind (checkRecording).
func checkSweep(t testing.TB, hv, vv View, p Params, front bool) Result {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := guarded{t: t}
	defer g.release()
	defer func() { rowVec = true }()

	var vec, gen Workspace
	seatWorkspace(&vec, &g, front, hv.Len(), vv.Len(), p)
	seatWorkspace(&gen, nil, front, hv.Len(), vv.Len(), p)
	rowVec = true
	got := vec.swept(hv, vv, p)
	rowVec = false
	want := gen.swept(hv, vv, p)

	if got != want {
		t.Errorf("%v front=%v h.rev=%v v.rev=%v:\n sweepLinearVec %+v\n Go loop        %+v", p, front, hv.rev, vv.rev, got, want)
	}
	whole := func(b []int32) []int32 { return b[:cap(b)] }
	for i, bufs := range [][2][]int32{{vec.wide.b0, gen.wide.b0}, {vec.wide.b1, gen.wide.b1}, {vec.wide.b2, gen.wide.b2}} {
		if !slices.Equal(whole(bufs[0]), whole(bufs[1])) {
			t.Errorf("%v front=%v: score buffer b%d differs:\n got  %v\n want %v", p, front, i, whole(bufs[0]), whole(bufs[1]))
		}
	}
	if !slices.Equal(vec.hq[:cap(vec.hq)], gen.hq[:cap(gen.hq)]) || !slices.Equal(vec.vq[:cap(vec.vq)], gen.vq[:cap(gen.vq)]) {
		t.Errorf("%v front=%v: a staged operand differs after the sweep", p, front)
	}
	checkRecording(t, hv, vv, p, front, -1)
	return want
}

// sweepEdges are the extensions a random draw does not reach: an empty
// side, single cells, rows that are one cell longer than a vector, and a
// window δb cuts on every row.
var sweepEdges = []struct {
	h, v  string
	x, db int
}{
	{"", "", 5, 0},
	{"", "ACGTA", 5, 0},
	{"ACGTA", "", 5, 0},
	{"A", "A", 5, 0},
	{"A", "C", 1, 0},
	{"ACGTACGT", "ACGTACGT", 100, 0},   // rows of 1 to 9 cells
	{"ACGTACGTA", "ACGTACGTT", 100, 0}, // and to 10
	{"ACGTACGTACGTACGTACGTACGTACGTACGT", "ACGTACGTACGAACGTACGTACGTTACGTACGT", 100, 3},
	{"ACGTNACGTnacgtACGT\x80ACGT", "ACGTNACGTNACGTACGT\x80ACGA", 12, 5},
}

// TestSweepKernelMatchesGeneric drives the resident vector sweep and
// linearSweep's Go loop over the same extensions — both layouts, the four
// view-direction pairs, the edge shapes above, random pairs under every
// scorer form with wildcards, lowercase and bytes ≥ 0x80, clamping δb, and
// one extension longer than sweepRows so that the kernel is re-entered —
// with every buffer the kernel touches against an unmapped page, first at
// its end, then at its start; each as a score sweep and as a recording
// (checkSweep). Recordings also start from a dirs too small to hold them,
// so that the recording kind returns to Go for room mid-extension and
// resumes its code stream at every bit position of a byte.
func TestSweepKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	layouts := []Algo{AlgoRestricted2, AlgoStandard3}
	var clamped, rows9 int
	run := func(h, v []byte, p Params) {
		for dir := 0; dir < 4; dir++ {
			for _, front := range []bool{false, true} {
				r := checkSweep(t, View{h, dir&1 != 0}, View{v, dir&2 != 0}, p, front)
				if r.Stats.Clamped {
					clamped++
				}
				if r.Stats.MaxLiveBand > rowLanes {
					rows9++
				}
			}
		}
	}
	for _, e := range sweepEdges {
		for _, algo := range layouts {
			for _, sc := range []scoring.Scorer{scoring.DNADefault, scoring.NewSimple(2, -3), scoring.Blosum62} {
				run([]byte(e.h), []byte(e.v), Params{Scorer: sc, Gap: -1, X: e.x, DeltaB: e.db, Algo: algo})
			}
		}
	}
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 60; trial++ {
		h, v, p := vectorTrial(rng, trial)
		run(h, v, p)
	}
	if clamped == 0 || rows9 == 0 {
		t.Fatalf("extensions that clamped: %d, with rows past one vector: %d; want both > 0", clamped, rows9)
	}

	// Longer than one call computes, so the loop state crosses sweepState
	// and back — at a small X, where nearly every row prunes a fringe cell
	// and a limit, bound or window start lost on the way shows at once.
	for trial := 0; trial < 4; trial++ {
		h := randDNA(rng, 2*sweepRows/3+trial)
		v := mutate(rng, h, 0.01)
		for _, algo := range layouts {
			p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 5, DeltaB: 64, Algo: algo}
			if r := checkSweep(t, NewView(h), NewView(v), p, false); r.Stats.Antidiagonals <= sweepRows {
				t.Fatalf("%v: %d antidiagonals, want more than sweepRows = %d", algo, r.Stats.Antidiagonals, sweepRows)
			}
			checkRecording(t, NewView(h), NewView(v), p, false, trial)
		}
	}

	// A recording whose dirs starts with k bytes returns to Go for room
	// first on the row that would end past cell 4k, and resumes there — at
	// whatever bit position of a byte that row starts — with the stream's
	// carry read back from memory. Every position must turn up.
	var resumedAt [4]int
	h := randDNA(rng, 300)
	v := mutate(rng, h, 0.1)
	for k := 0; k < 48; k++ {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 20, DeltaB: []int{0, 16}[k%2], Algo: layouts[k/2%2]}
		offs := checkRecording(t, NewView(h), View{v, k%3 == 0}, p, k%4 == 0, k)
		for d := 1; d+1 < len(offs); d++ {
			if int(offs[d+1]) > 4*k {
				resumedAt[offs[d]&3]++
				break
			}
		}
	}
	if slices.Contains(resumedAt[:], 0) {
		t.Fatalf("first resumptions by bit position in a byte: %v; want every position", resumedAt)
	}
}

// TestSweepResumesEveryRow re-enters sweepLinearVec every 1, 2, 3 and 7
// rows — so that every row of an extension starts a call and every piece of
// row-to-row state crosses sweepState and back — and compares what each
// schedule leaves behind with one call per extension: Result and Stats,
// every score buffer to the end of its capacity and, for the recording
// kind, the Trace, the window index and the whole dirs allocation. Both row
// kinds, both layouts, both similarity forms, and δb below the band so that
// the clamp fires. Then queues of the score kind, against one call for the
// whole queue (batchResumes): every Result and both lanes' buffers. The
// budget of 1 runs out, among others, on rows that end a lane's extension.
// sweepState.call and runQueue check each call's budget; a kernel that
// ignores it or loses d on the way out fails there.
func TestSweepResumesEveryRow(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	defer func(rows int) { sweepRows = rows }(sweepRows)
	type swept struct {
		score, rec    Result
		tr            Trace
		err           error
		bufs, recBufs [3][]int32
		cls, offs     []int32
		dirs          []byte
	}
	whole := func(b []int32) []int32 { return b[:cap(b)] }
	sweepAll := func(rows int, hv, vv View, p Params) (s swept) {
		sweepRows = rows
		var w, rw Workspace
		s.score = w.swept(hv, vv, p)
		s.rec, s.tr, s.err = rw.fusedLinear(hv, vv, p)
		s.bufs = [3][]int32{whole(w.wide.b0), whole(w.wide.b1), whole(w.wide.b2)}
		s.recBufs = [3][]int32{whole(rw.wide.b0), whole(rw.wide.b1), whole(rw.wide.b2)}
		s.cls, s.offs, s.dirs = rw.tb.cls, rw.tb.offs, rw.tb.dirs[:cap(rw.tb.dirs)]
		return s
	}
	rng := rand.New(rand.NewSource(98))
	var clamped int
	for trial := 0; trial < 32; trial++ {
		h := randDNA(rng, 40+rng.Intn(160))
		v := mutate(rng, h, 0.1)
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 8 + rng.Intn(30), DeltaB: []int{6, 0}[trial/4%2],
			Algo: []Algo{AlgoRestricted2, AlgoStandard3}[trial%2]}
		if trial/2%2 == 1 {
			p.Scorer, p.Gap = scoring.Blosum62, -4
		}
		hv, vv := View{h, trial%8 >= 4}, View{v, trial%16 >= 8}
		want := sweepAll(1<<30, hv, vv, p)
		if want.err != nil {
			t.Fatal(want.err)
		}
		if want.score.Stats.Clamped {
			clamped++
		}
		for _, rows := range []int{1, 2, 3, 7} {
			got := sweepAll(rows, hv, vv, p)
			name := fmt.Sprintf("trial %d %v %v, %d rows a call", trial, p.Algo, p.Scorer, rows)
			if got.score != want.score || got.rec != want.rec || got.tr != want.tr || got.err != nil {
				t.Fatalf("%s: score %+v record %+v %+v (%v), one call: %+v %+v %+v", name, got.score, got.rec, got.tr, got.err, want.score, want.rec, want.tr)
			}
			for i := range got.bufs {
				if !slices.Equal(got.bufs[i], want.bufs[i]) || !slices.Equal(got.recBufs[i], want.recBufs[i]) {
					t.Fatalf("%s: score buffer b%d differs", name, i)
				}
			}
			if !slices.Equal(got.cls, want.cls) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.dirs, want.dirs) {
				t.Fatalf("%s: the recording differs", name)
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no extension clamped")
	}

	// The score kind's queue: two lanes sharing each call's budget, a lane
	// refilled when its extension ends (batchResumes).
	var endedOnBudget int
	for trial := 0; trial < 16; trial++ {
		form := batchForms[trial%2]
		p := Params{Scorer: form.scorer, Gap: -1, X: 8 + rng.Intn(30), DeltaB: []int{6, 0}[trial/2%2],
			Algo: []Algo{AlgoRestricted2, AlgoStandard3}[trial/4%2]}
		sides := batchSides(rng, 1+trial, 120, form)
		endedOnBudget += batchResumes(t, fmt.Sprintf("queue %d %v %v", trial, p.Algo, p.Scorer), sides, p)
	}
	if endedOnBudget == 0 {
		t.Fatal("no budget ran out on the row that ended an extension")
	}
}

// FuzzSweepKernel is TestSweepKernelMatchesGeneric under the fuzzer's
// choice of lengths, divergence, scorer, X, δb, layout, view directions
// and which side of every buffer touches the unmapped page.
func FuzzSweepKernel(f *testing.F) {
	f.Add(int64(1), uint16(16), uint16(16), uint8(15), uint8(0), uint8(0))
	f.Add(int64(2), uint16(40), uint16(33), uint8(40), uint8(9), uint8(1))
	f.Add(int64(3), uint16(0), uint16(7), uint8(5), uint8(0), uint8(6))
	f.Add(int64(4), uint16(300), uint16(280), uint8(60), uint8(12), uint8(0x1b))
	f.Add(int64(5), uint16(3), uint16(0), uint8(1), uint8(0), uint8(0x20))
	f.Add(int64(6), uint16(150), uint16(150), uint8(5), uint8(32), uint8(0x3c))
	f.Fuzz(func(t *testing.T, seed int64, hLen, vLen uint16, x, deltaB, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		rng := rand.New(rand.NewSource(seed))
		form := rowForms[int(flags>>4&3)]
		draw := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = form.alpha[rng.Intn(len(form.alpha))]
			}
			return b
		}
		h := draw(int(hLen % 2048))
		v := draw(int(vLen % 2048))
		// Mostly a noisy copy, so that the extension runs on.
		for i := range v {
			if i < len(h) && rng.Intn(8) != 0 {
				v[i] = h[i]
			}
		}
		p := Params{Scorer: form.scorer, Gap: -1 - int(flags>>6), X: int(x), DeltaB: int(deltaB),
			Algo: []Algo{AlgoRestricted2, AlgoStandard3}[flags&1]}
		checkSweep(t, View{h, flags&2 != 0}, View{v, flags&4 != 0}, p, flags&8 != 0)
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
		a := vec.swept(hv, vv, p)
		rowVec = false
		b := gen.swept(hv, vv, p)
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

// rowCodesRef is one recording row in scalar Go: the linear row recurrence
// (diagonal from d2, wlast for the first cell; gap from the better of two
// d1 neighbours; pruned below limit) plus fusedLinear's direction rule —
// the gap move only when it strictly beats the diagonal, up on a tie
// between the gap sources, codeNone where pruned. It never runs in place.
// ties counts the cells whose gap move equalled the diagonal and those
// whose gap sources were equal.
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

// checkCodesRow runs one row of sweepLinearVec's recording kind from a
// hand-set sweepState, and rowCodesRef followed by packRow over the same
// operands, and compares everything the row may write: the whole out
// allocation (guards and spare cells included), the whole dirs allocation,
// the window index and where the code stream stops. The row is
// antidiagonal cnt+1 of a (cnt+1)×(cnt+1) extension, cells 1 … cnt, over
// d1 and d2 rows of random, tie-rich values in which the −∞ guards are
// ordinary values too. Its first code lands at bit 2·head of a byte, and
// dirs starts out random, so the earlier cells' bits of that byte and the
// later cells' bits of the last one must come through unchanged. Every
// buffer, both staged operands and dirs (at the last cell's byte) end flush
// against an unmapped page — or, with front, begin right behind one (dirs
// at the first cell's byte). It returns rowCodesRef's tie counts.
func checkCodesRow(t testing.TB, rng *rand.Rand, cnt, formIdx, head int, front bool, limit int32) [2]int {
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
	cells := cnt + 2*bufPad + rowSlack // growBuf(cnt)'s capacity
	row := func() []int32 {
		b := g.scoresAt(cells, front)
		for i := range b {
			b[i] = val()
		}
		return b
	}
	d1, d2 := row(), row()
	staged := func() []byte {
		b := g.mapping(cnt+1+2*seqPad, front)
		for i := range b {
			b[i] = form.alpha[rng.Intn(len(form.alpha))]
		}
		return b[seqPad:]
	}
	hq, vq := staged(), staged()
	if rng.Intn(2) == 0 {
		copy(vq[1:cnt+1], hq[:cnt])
	}
	gotOut := g.scoresAt(cells, front)
	wantOut := make([]int32, cells)
	for i := range gotOut {
		gotOut[i], wantOut[i] = sweepFill, sweepFill
	}

	// dirs: three bytes of earlier windows unless it starts at a page, then
	// the bytes of cells head … head+cnt−1.
	lead := 3
	if front {
		lead = 0
	}
	cell := 4*lead + head
	gotDirs := g.mapping(lead+(head+cnt+3)/4, front)
	rng.Read(gotDirs)
	wantDirs := slices.Clone(gotDirs)

	d := cnt + 1
	cls, offs := make([]int32, d+2), make([]int32, d+2)
	for i := range cls {
		cls[i], offs[i] = -7, -7
	}
	offs[d] = int32(cell)
	wantCls, wantOffs := slices.Clone(cls), slices.Clone(offs)
	wantCls[d], wantOffs[d+1] = 1, int32(cell+cnt)
	gap := int32(-1 - rng.Intn(2))
	st := sweepState{
		hq: &hq[0], vq: &vq[0], sim: form.sim(),
		m: d, n: d, capacity: cnt, gap: gap, x: int32(1 + rng.Intn(20)),
		d1: uintptr(unsafe.Pointer(&d1[0])), out: uintptr(unsafe.Pointer(&gotOut[0])),
		d1b: uintptr(unsafe.Pointer(&d1[bufPad-1])), d2b: uintptr(unsafe.Pointer(&d2[bufPad-1])), // both windows start at cell 1
		vd: uintptr(unsafe.Pointer(&vq[0])), d1lo: 1, d1hi: cnt - 1, // vd = vq + n − d, n = d
		limit: limit, best: int32(rng.Intn(9) - 4),
		record: true, cls: &cls[0], offs: &offs[0],
	}
	st.openStream(gotDirs, cell)
	q := sweepQueue{lanes: [2]*sweepState{&st}, rows: 1}
	sweepLinearVec(&q)
	st.closeStream(gotDirs)

	codes := make([]byte, cnt)
	wantOut[0], wantOut[1], wantOut[cnt+2], wantOut[cnt+3] = negInf32, negInf32, negInf32, negInf32
	_, ties := rowCodesRef(wantOut[bufPad:], codes, d2[bufPad:], d1[bufPad-1:], hq, vq[1:], form.scorer.Table(), cnt, d2[bufPad-1], gap, limit)
	ref := tracer{dirs: wantDirs}
	ref.packRow(int32(cell), codes)

	name := func() string {
		return fmt.Sprintf("%s cnt %d head %d limit %d front %v", form.name, cnt, head, limit, front)
	}
	if !slices.Equal(gotOut, wantOut) {
		t.Errorf("%s: stored row differs:\n got  %v\n want %v", name(), gotOut, wantOut)
	}
	if !slices.Equal(gotDirs, wantDirs) {
		t.Errorf("%s (cell %d, codes %v): packed directions differ:\n got  %08b\n want %08b", name(), cell, codes, gotDirs, wantDirs)
	}
	end := cell + cnt
	if !slices.Equal(cls, wantCls) || !slices.Equal(offs, wantOffs) {
		t.Errorf("%s: window index cls %v offs %v, want %v %v", name(), cls, offs, wantCls, wantOffs)
	}
	if st.dirb != end>>2 || st.bits != uint32(end&3)*2 || st.mul != 1<<st.bits {
		t.Errorf("%s: stream stops at byte %d bit %d (mul %d), want byte %d bit %d", name(), st.dirb, st.bits, st.mul, end>>2, end&3*2)
	}
	return ties
}

// TestRowCodesKernelMatchesGeneric drives single rows of the recording
// kind of sweepLinearVec and the scalar rule plus packRow over the same
// randomized operands: every row length from a single cell through three
// vectors and a seven-cell tail (so every tail length, alone and behind
// whole vectors), at each of the four bit positions a row can start at
// within a dirs byte, every prune regime (the all-pruned row included),
// every similarity form, both page sides, and — checked, not hoped for —
// cells where the gap move ties with the diagonal and cells whose two gap
// sources are equal.
func TestRowCodesKernelMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(93))
	var ties [2]int
	for cnt := 1; cnt <= maxRowCnt; cnt++ {
		for _, limit := range rowLimits {
			for form := range rowForms {
				for head := 0; head < 4; head++ {
					for _, front := range []bool{false, true} {
						got := checkCodesRow(t, rng, cnt, form, head, front, limit)
						ties[0], ties[1] = ties[0]+got[0], ties[1]+got[1]
					}
				}
			}
		}
	}
	if ties[0] == 0 || ties[1] == 0 {
		t.Fatalf("tie cells exercised: gap==diag %d, equal gap sources %d; want both > 0", ties[0], ties[1])
	}
}

// FuzzRowCodesKernel is TestRowCodesKernelMatchesGeneric under the
// fuzzer's choice of row length, prune regime, form, first bit position,
// page side and operand content.
func FuzzRowCodesKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(15), uint8(3))
	f.Add(int64(3), uint8(41), uint8(4))
	f.Add(int64(4), uint8(200), uint8(7))
	f.Add(int64(5), uint8(5), uint8(9))
	f.Add(int64(6), uint8(1), uint8(30))
	f.Add(int64(7), uint8(9), uint8(0x20))
	f.Add(int64(8), uint8(23), uint8(0x56))
	f.Add(int64(9), uint8(3), uint8(0x7d))
	f.Fuzz(func(t *testing.T, seed int64, cnt, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		checkCodesRow(t, rand.New(rand.NewSource(seed)), max(int(cnt), 1), int(flags>>2&3), int(flags>>5&3), flags&16 != 0, rowLimits[flags&3])
	})
}

// checkRecording runs one whole recording through the recording kind of
// sweepLinearVec and through fusedLinear's Go loop, both from stale dirs
// (0xff throughout), and compares everything either leaves behind: Result
// and Trace, each score buffer to the end of its capacity, the window index
// and the whole dirs allocation. With dirsCap < 0 nothing grows: every
// score buffer, both staged operands, cls, offs and dirs have exactly the
// capacity the recording takes and touch an unmapped page, at their end or,
// front, at their start. Otherwise dirs starts with dirsCap bytes on both
// sides and grows, so the recording kind returns to Go for room mid-way.
// It returns the recording's offs.
func checkRecording(t testing.TB, hv, vv View, p Params, front bool, dirsCap int) []int32 {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := guarded{t: t}
	defer g.release()
	defer func() { rowVec = true }()

	m, n := hv.Len(), vv.Len()
	stale := func(b []byte) []byte {
		for i := range b {
			b[i] = 0xff
		}
		return b[:0]
	}
	var vec, gen Workspace
	seatWorkspace(&vec, &g, front, m, n, p)
	seatWorkspace(&gen, nil, front, m, n, p)
	if dirsCap < 0 {
		var probe Workspace
		rowVec = false
		if _, _, err := probe.fusedLinear(hv, vv, p); err != nil {
			t.Fatal(err)
		}
		dirsCap = len(probe.tb.dirs)
		diags := m + n + 1
		vec.tb.cls, vec.tb.offs = g.scoresAt(diags, front)[:0], g.scoresAt(diags+1, front)[:0]
		vec.tb.dirs = stale(g.mapping(dirsCap, front))
	} else {
		vec.tb.dirs = stale(make([]byte, dirsCap))
	}
	gen.tb.dirs = stale(make([]byte, dirsCap))

	rowVec = true
	gr, gtr, gerr := vec.fusedLinear(hv, vv, p)
	rowVec = false
	wr, wtr, werr := gen.fusedLinear(hv, vv, p)
	if gr != wr || gtr != wtr || gerr != nil || werr != nil {
		t.Fatalf("%v front=%v dirs %d: recording kind %+v %+v (%v), Go loop %+v %+v (%v)", p, front, dirsCap, gr, gtr, gerr, wr, wtr, werr)
	}
	whole := func(b []int32) []int32 { return b[:cap(b)] }
	for i, bufs := range [][2][]int32{{vec.wide.b0, gen.wide.b0}, {vec.wide.b1, gen.wide.b1}, {vec.wide.b2, gen.wide.b2}} {
		if !slices.Equal(whole(bufs[0]), whole(bufs[1])) {
			t.Errorf("%v front=%v: score buffer b%d differs:\n got  %v\n want %v", p, front, i, whole(bufs[0]), whole(bufs[1]))
		}
	}
	if !slices.Equal(vec.tb.cls, gen.tb.cls) || !slices.Equal(vec.tb.offs, gen.tb.offs) {
		t.Errorf("%v front=%v: window index differs:\n cls  %v\n want %v\n offs %v\n want %v", p, front, vec.tb.cls, gen.tb.cls, vec.tb.offs, gen.tb.offs)
	}
	if cap(vec.tb.dirs) != cap(gen.tb.dirs) || !slices.Equal(vec.tb.dirs[:cap(vec.tb.dirs)], gen.tb.dirs[:cap(gen.tb.dirs)]) {
		t.Errorf("%v front=%v dirs %d: dirs allocation differs (len %d/%d, cap %d/%d):\n got  %08b\n want %08b", p, front, dirsCap,
			len(vec.tb.dirs), len(gen.tb.dirs), cap(vec.tb.dirs), cap(gen.tb.dirs), vec.tb.dirs[:cap(vec.tb.dirs)], gen.tb.dirs[:cap(gen.tb.dirs)])
	}
	return gen.tb.offs
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

// TestRecordTraceCapMatchesGeneric runs recordings under a trace cell cap
// exactly at their cell count, one cell below it and at a row boundary
// half-way, with the vector body on and off: both must return the same
// Trace, or ErrTraceTooLarge (the recording kind leaves the assembly for
// the row that would pass the cap, and Go refuses it there).
func TestRecordTraceCapMatchesGeneric(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		h, v, p := vectorTrial(rng, trial)
		hv, vv := View{h, trial%4 >= 2}, View{v, trial%8 >= 4}
		var probe Workspace
		if _, _, err := probe.record(hv, vv, p, true); err != nil {
			t.Fatal(err)
		}
		offs := probe.tb.offs
		cells := int64(offs[len(offs)-1])
		for _, limit := range []int64{cells, cells - 1, int64(offs[len(offs)/2])} {
			restore := SetTraceCellCapForTest(limit)
			vec, gen, _, _ := vectorAndGeneric(func(ws *Workspace) recorded {
				r, tr, err := ws.record(hv, vv, p, true)
				return recorded{r, tr, err}
			})
			restore()
			if vec != gen || (vec.err == nil) != (limit >= cells) || vec.err != nil && !errors.Is(vec.err, ErrTraceTooLarge) {
				t.Fatalf("trial %d %v, cap %d of %d cells: vector %+v, generic %+v", trial, p.Algo, limit, cells, vec, gen)
			}
		}
	}
}

// TestRecordingIgnoresStaleDirectionBits pins the contract beginDiag
// states: dirs is not cleared between recordings, because every cell a
// row stores is masked in whatever its byte held. A workspace whose dirs a
// longer earlier recording left behind, set to 0xff end to end, must
// record the same Result and Trace as a fresh one — on the vector body and
// on the Go loop.
func TestRecordingIgnoresStaleDirectionBits(t *testing.T) {
	vec := rowVec
	defer func() { rowVec = vec }()
	rng := rand.New(rand.NewSource(96))
	longH := randDNA(rng, 1200)
	longV := mutate(rng, longH, 0.05)
	longP := Params{Scorer: scoring.DNADefault, Gap: -1, X: 60, DeltaB: 256}
	for _, body := range []bool{true, false} {
		if body && !vec {
			continue
		}
		rowVec = body
		for trial := 0; trial < 120; trial++ {
			h, v, p := vectorTrial(rng, trial)
			hv, vv := View{h, trial%4 >= 2}, View{v, trial%8 >= 4}
			rev := trial%16 >= 8
			var stale, fresh Workspace
			if _, _, err := stale.record(NewView(longH), NewView(longV), longP, true); err != nil {
				t.Fatal(err)
			}
			dirs := stale.tb.dirs[:cap(stale.tb.dirs)]
			for i := range dirs {
				dirs[i] = 0xff
			}
			r, tr, err := stale.record(hv, vv, p, rev)
			got := recorded{r, tr, err}
			r, tr, err = fresh.record(hv, vv, p, rev)
			want := recorded{r, tr, err}
			if got != want || want.err != nil {
				t.Fatalf("vector body %v, trial %d %v: on stale dirs %+v, on a fresh workspace %+v", body, trial, p.Algo, got, want)
			}
			if len(fresh.tb.dirs) > len(dirs) {
				t.Fatalf("trial %d: the stale recording (%d bytes) is shorter than this one (%d)", trial, len(dirs), len(fresh.tb.dirs))
			}
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
