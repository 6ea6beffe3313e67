//go:build amd64 && !purego && unix

package core

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// batchForms are the similarity forms a queue runs under: the byte compare
// of a DNA scheme and the BLOSUM62 gather.
var batchForms = []rowForm{rowForms[0], rowForms[3]}

// batchSides draws a queue of count sides under form, left and right
// mixed: each a noisy copy of one draw, with junk beyond the offset on the
// side the extension does not read. One side in ten is empty on h or v,
// one in ten a single cell; the rest are up to maxLen symbols.
func batchSides(rng *rand.Rand, count, maxLen int, form rowForm) []Side {
	draw := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = form.alpha[rng.Intn(len(form.alpha))]
		}
		return b
	}
	length := func() int {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Intn(maxLen + 1)
	}
	sides := make([]Side, count)
	for i := range sides {
		h, v := draw(length()), draw(length())
		for k := range v {
			if k < len(h) && rng.Intn(8) != 0 {
				v[k] = h[k]
			}
		}
		s := Side{Left: rng.Intn(2) == 0}
		if s.Left {
			s.H, s.V = append(h, draw(rng.Intn(4))...), append(v, draw(rng.Intn(4))...)
			s.HOff, s.VOff = len(h), len(v)
		} else {
			jh, jv := draw(rng.Intn(4)), draw(rng.Intn(4))
			s.H, s.V = append(jh, h...), append(jv, v...)
			s.HOff, s.VOff = len(jh), len(jv)
		}
		sides[i] = s
	}
	return sides
}

// alone runs one side through the entry point it stands for.
func (s *Side) alone(w *Workspace, p Params) Result {
	if s.Left {
		return w.ExtendLeft(s.H, s.V, s.HOff, s.VOff, p)
	}
	return w.ExtendRight(s.H, s.V, s.HOff, s.VOff, p)
}

// seatBatch hands w the arena and both lanes' score buffers that a queue
// of sides under p takes, at exactly the capacity sweepBatch asks for and
// filled with sweepFill, each ending at an unmapped page or, front,
// starting right behind one.
func seatBatch(w *Workspace, g *guarded, front bool, sides []Side, p Params) {
	size, capacity := seqPad, 0
	for i := range sides {
		h, v := sides[i].views()
		size += h.Len() + v.Len() + 2*seqPad
		capacity = max(capacity, linearCapacity(h.Len(), v.Len(), &p))
	}
	arena := g.mapping(size, front)
	for i := range arena {
		arena[i] = sweepFill
	}
	w.arena = arena[:0]
	cells := capacity + 2*bufPad + rowSlack
	for _, b := range []*scoreBufs{&w.wide, &w.alt} {
		for _, s := range []*[]int32{&b.b0, &b.b1, &b.b2} {
			*s = g.scoresAt(cells, front)
			for i := range *s {
				(*s)[i] = sweepFill
			}
			*s = (*s)[:0]
		}
	}
}

// checkBatch runs sides as one queue, with the arena and both lanes'
// buffers against an unmapped page, and compares every Result, all Stats
// fields included, with the side run alone, through the resident sweep
// and through the Go loop. It returns the queue's Results.
func checkBatch(t testing.TB, sides []Side, p Params, front bool) []Result {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := guarded{t: t}
	defer g.release()
	defer func() { rowVec = true }()

	var w Workspace
	seatBatch(&w, &g, front, sides, p)
	got := make([]Result, len(sides))
	rowVec = true
	w.ExtendBatch(&p, sides, got)
	for i := range sides {
		var alone Workspace
		rowVec = true
		vec := sides[i].alone(&alone, p)
		rowVec = false
		gen := sides[i].alone(&alone, p)
		if got[i] != vec || got[i] != gen {
			s := &sides[i]
			t.Fatalf("%v front=%v: side %d of %d (left=%v, %d×%d):\n queue          %+v\n alone          %+v\n alone, Go loop %+v",
				p, front, i, len(sides), s.Left, len(s.H), len(s.V), got[i], vec, gen)
		}
	}
	return got
}

// TestSweepBatchMatchesSingle runs queues of 0 to 40 sides — empty and
// one-cell sides among them, left and right mixed, under both layouts,
// both similarity forms, X down to 6 and δb down to 6 so
// that the clamp fires inside a lane — and one queue whose sides run longer than
// sweepRows, so that the lanes cross calls, through ExtendBatch with the
// arena and both lanes' buffers against an unmapped page at either end;
// every Result must be the one the side gets alone (checkBatch).
func TestSweepBatchMatchesSingle(t *testing.T) {
	if !rowVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(37))
	var clamped, sides int
	for trial := 0; trial < 48; trial++ {
		form := batchForms[trial%2]
		p := Params{Scorer: form.scorer, Gap: -1 - trial/4%2, X: 6 + rng.Intn(30),
			DeltaB: []int{0, 6, 9, 32}[trial/2%4], Algo: []Algo{AlgoRestricted2, AlgoStandard3}[trial/8%2]}
		for _, r := range checkBatch(t, batchSides(rng, trial%41, 300, form), p, trial%3 == 0) {
			if r.Stats.Clamped {
				clamped++
			}
			sides++
		}
	}
	if clamped == 0 {
		t.Fatalf("no side of %d clamped", sides)
	}
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3} {
		long := batchSides(rng, 3, 20, batchForms[0])
		h := randDNA(rng, sweepRows/2+300)
		long[1] = Side{H: h, V: mutate(rng, h, 0.01)}
		p := Params{Scorer: batchForms[0].scorer, Gap: -1, X: 20, DeltaB: 64, Algo: algo}
		if r := checkBatch(t, long, p, false); r[1].Stats.Antidiagonals <= sweepRows {
			t.Fatalf("%v: %d antidiagonals, want more than sweepRows = %d", algo, r[1].Stats.Antidiagonals, sweepRows)
		}
	}
}

// FuzzSweepBatch is TestSweepBatchMatchesSingle under the fuzzer's choice
// of queue length, side lengths (up to past sweepRows), scorer form, X, δb,
// gap, layout and which side of every buffer touches the unmapped page.
func FuzzSweepBatch(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(200), uint8(15), uint8(0), uint8(0))
	f.Add(int64(2), uint8(17), uint16(60), uint8(6), uint8(6), uint8(0x13))
	f.Add(int64(3), uint8(0), uint16(0), uint8(5), uint8(0), uint8(0))
	f.Add(int64(4), uint8(1), uint16(2500), uint8(30), uint8(64), uint8(0x04))
	f.Add(int64(5), uint8(40), uint16(1), uint8(1), uint8(0), uint8(0x0a))
	f.Fuzz(func(t *testing.T, seed int64, count uint8, maxLen uint16, x, deltaB, flags uint8) {
		if !rowVec {
			t.Skip("no AVX2 on this host")
		}
		rng := rand.New(rand.NewSource(seed))
		form := batchForms[flags>>1&1]
		p := Params{Scorer: form.scorer, Gap: -1 - int(flags>>6), X: int(x), DeltaB: int(deltaB),
			Algo: []Algo{AlgoRestricted2, AlgoStandard3}[flags&1]}
		checkBatch(t, batchSides(rng, int(count%41), int(maxLen%2600), form), p, flags&4 != 0)
	})
}

// batchResumes runs one queue through ExtendBatch at each budget of rows a
// call and compares what each leaves behind with one call for the whole
// queue — every Result, and both lanes' buffers to the end of their
// capacity: the rows of a queue run in one order whatever the budget — and
// that call's Results with each side run alone. It returns how many
// extensions ended on a row with no live cell at a budget of one row: each
// of those calls spent its budget on the row that ended a lane's
// extension, and bound the next queued state to the lane with no budget
// left. The caller restores sweepRows.
func batchResumes(t *testing.T, name string, sides []Side, p Params) (endedOnBudget int) {
	type swept struct {
		res  []Result
		bufs [6][]int32
	}
	whole := func(b []int32) []int32 { return b[:cap(b)] }
	run := func(rows int) (s swept, w *Workspace) {
		sweepRows = rows
		w = new(Workspace)
		s.res = make([]Result, len(sides))
		w.ExtendBatch(&p, sides, s.res)
		s.bufs = [6][]int32{whole(w.wide.b0), whole(w.wide.b1), whole(w.wide.b2), whole(w.alt.b0), whole(w.alt.b1), whole(w.alt.b2)}
		return s, w
	}
	want, _ := run(1 << 20) // the whole queue in one call: its sides have fewer rows
	var alone Workspace
	for i := range sides {
		if r := sides[i].alone(&alone, p); want.res[i] != r {
			t.Fatalf("%s, one call: side %d: %+v, alone: %+v", name, i, want.res[i], r)
		}
	}
	for _, rows := range []int{1, 2, 3, 7} {
		got, w := run(rows)
		for i := range sides {
			if got.res[i] != want.res[i] {
				t.Fatalf("%s, %d rows a call: side %d: %+v, one call: %+v", name, rows, i, got.res[i], want.res[i])
			}
		}
		for i := range got.bufs {
			if !slices.Equal(got.bufs[i], want.bufs[i]) {
				t.Fatalf("%s, %d rows a call: lane buffer %d differs", name, rows, i)
			}
		}
		if rows == 1 {
			for _, st := range w.states[:len(sides)] {
				if st.d1hi < 0 {
					endedOnBudget++
				}
			}
		}
	}
	return endedOnBudget
}
