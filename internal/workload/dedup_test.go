package workload

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

func mkArena(t *testing.T, seqs ...[]byte) *Arena {
	t.Helper()
	a := NewArena(0, len(seqs))
	for _, s := range seqs {
		mustAppend(t, a, s)
	}
	return a
}

func TestDedupPlanCollapsesInternedDuplicates(t *testing.T) {
	// Indices 0 and 1 are byte-identical (interned), 2 is distinct.
	a := mkArena(t,
		[]byte("ACGTACGTACGTACGTACGT"),
		[]byte("ACGTACGTACGTACGTACGT"),
		[]byte("TTTTCCCCGGGGAAAATTTT"),
	)
	p := PlanOf([]Comparison{
		{H: 0, V: 2, SeedH: 3, SeedV: 4, SeedLen: 5},
		{H: 1, V: 2, SeedH: 3, SeedV: 4, SeedLen: 5}, // same bytes, different numbering
		{H: 0, V: 2, SeedH: 3, SeedV: 4, SeedLen: 5}, // literal duplicate
		{H: 2, V: 0, SeedH: 4, SeedV: 3, SeedLen: 5}, // mirrored: distinct
	})
	m := a.DedupPlan(p)
	if m.Unique() != 2 {
		t.Fatalf("Unique = %d, want 2", m.Unique())
	}
	if m.Duplicates() != 2 {
		t.Fatalf("Duplicates = %d, want 2", m.Duplicates())
	}
	if m.RowUID[0] != m.RowUID[1] || m.RowUID[0] != m.RowUID[2] {
		t.Errorf("rows 0..2 should share a unique extension: %v", m.RowUID)
	}
	if m.RowUID[3] == m.RowUID[0] {
		t.Errorf("mirrored (V,H) comparison must not dedup against (H,V)")
	}
	if m.Fanout[m.RowUID[0]] != 3 || m.Fanout[m.RowUID[3]] != 1 {
		t.Errorf("fanout = %v, want [3 1]", m.Fanout)
	}
	if m.UniqueRows[m.RowUID[0]] != 0 || m.UniqueRows[m.RowUID[3]] != 3 {
		t.Errorf("representatives should be first appearances: %v", m.UniqueRows)
	}
}

func TestDedupPlanSelfComparisons(t *testing.T) {
	// 0 and 1 are identical bytes; self-comparisons on each are the same
	// extension, a self-comparison on distinct bytes is not.
	a := mkArena(t,
		[]byte("ACGTACGTACGTACGTACGT"),
		[]byte("ACGTACGTACGTACGTACGT"),
		[]byte("TTTTCCCCGGGGAAAATTTT"),
	)
	p := PlanOf([]Comparison{
		{H: 0, V: 0, SeedH: 2, SeedV: 2, SeedLen: 4},
		{H: 1, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4},
		{H: 2, V: 2, SeedH: 2, SeedV: 2, SeedLen: 4},
	})
	m := a.DedupPlan(p)
	if m.Unique() != 2 {
		t.Fatalf("Unique = %d, want 2", m.Unique())
	}
	if m.RowUID[0] != m.RowUID[1] {
		t.Errorf("interned self-comparisons should dedup")
	}
	if m.RowUID[2] == m.RowUID[0] {
		t.Errorf("distinct-content self-comparison wrongly deduped")
	}
}

func TestDedupPlanSamePairDifferentSeeds(t *testing.T) {
	a := mkArena(t, []byte("ACGTACGTACGTACGTACGT"), []byte("TTTTCCCCGGGGAAAATTTT"))
	p := PlanOf([]Comparison{
		{H: 0, V: 1, SeedH: 1, SeedV: 1, SeedLen: 4},
		{H: 0, V: 1, SeedH: 2, SeedV: 1, SeedLen: 4},
		{H: 0, V: 1, SeedH: 1, SeedV: 1, SeedLen: 5},
	})
	m := a.DedupPlan(p)
	if m.Unique() != 3 {
		t.Fatalf("identical pairs with different seeds must not dedup: Unique = %d, want 3", m.Unique())
	}
}

// TestDedupPlanExactForEqualLengthContent is the hash-collision guard for
// the in-plan extension-key map: the map is keyed by canonical slab
// spans, not by any content hash, so two sequences of equal length whose
// digests hypothetically collided could still never be merged — their
// spans differ whenever their bytes do.
func TestDedupPlanExactForEqualLengthContent(t *testing.T) {
	sA := []byte("AAAACGTACGTACGTAAAAA")
	sB := []byte("AAAACGTACGTACGTAAAAC") // same length, one byte off
	a := mkArena(t, sA, sB)
	if a.Ref(0) == a.Ref(1) {
		t.Fatal("distinct content interned onto one span")
	}
	p := PlanOf([]Comparison{
		{H: 0, V: 1, SeedH: 1, SeedV: 1, SeedLen: 4},
		{H: 1, V: 0, SeedH: 1, SeedV: 1, SeedLen: 4},
		{H: 0, V: 0, SeedH: 1, SeedV: 1, SeedLen: 4},
		{H: 1, V: 1, SeedH: 1, SeedV: 1, SeedLen: 4},
	})
	m := a.DedupPlan(p)
	if m.Unique() != 4 {
		t.Fatalf("equal-length distinct content deduped: Unique = %d, want 4", m.Unique())
	}
}

func TestExtensionKeyCrossArena(t *testing.T) {
	sA := []byte("ACGTACGTACGTACGTACGT")
	sB := []byte("TTTTCCCCGGGGAAAATTTT")
	sC := []byte("GGGGGGGGCCCCCCCCAAAA")

	// Arena 1: A at index 0, B at 1. Arena 2: padded with C first and B
	// before A — different numbering, different offsets.
	a1 := mkArena(t, sA, sB)
	a2 := mkArena(t, sC, sB, sA)

	k1 := a1.ExtensionKeyOf(Comparison{H: 0, V: 1, SeedH: 3, SeedV: 4, SeedLen: 5})
	k2 := a2.ExtensionKeyOf(Comparison{H: 2, V: 1, SeedH: 3, SeedV: 4, SeedLen: 5})
	if k1 != k2 {
		t.Errorf("same bytes + seed across arenas should produce equal keys:\n%+v\n%+v", k1, k2)
	}

	// Different sequence content, different seed, or swapped direction
	// all change the key.
	if k1 == a2.ExtensionKeyOf(Comparison{H: 0, V: 1, SeedH: 3, SeedV: 4, SeedLen: 5}) {
		t.Error("different H content produced an equal key")
	}
	if k1 == a1.ExtensionKeyOf(Comparison{H: 0, V: 1, SeedH: 4, SeedV: 4, SeedLen: 5}) {
		t.Error("different seed produced an equal key")
	}
	if k1 == a1.ExtensionKeyOf(Comparison{H: 1, V: 0, SeedH: 4, SeedV: 3, SeedLen: 5}) {
		t.Error("mirrored direction produced an equal key")
	}
}

// TestSeqDigestDistinctness is a smoke check that the 128-bit digest
// separates a corpus of near-identical sequences (single-symbol edits,
// shared prefixes, varied lengths) — the regime interning and the result
// cache actually see.
func TestSeqDigestDistinctness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := []byte("ACGT")
	seen := make(map[SeqDigest][]byte)
	check := func(s []byte) {
		d := digestBytes(s)
		if prev, ok := seen[d]; ok && string(prev) != string(s) {
			t.Fatalf("digest collision between %.40q and %.40q (%d bytes)", prev, s, len(s))
		}
		seen[d] = append([]byte(nil), s...)
	}
	base := make([]byte, 64)
	for i := range base {
		base[i] = alpha[rng.Intn(4)]
	}
	check(base)
	for i := range base {
		for _, c := range alpha {
			if base[i] == c {
				continue
			}
			mut := append([]byte(nil), base...)
			mut[i] = c
			check(mut)
		}
	}
	for n := 0; n < 64; n++ {
		check(base[:n])
	}
	// The Thue–Morse word and its complement at 2¹⁰…2¹³ symbols collide
	// unkeyed FNV-1a and odd-base polynomial hashes (an FNV/polynomial
	// pair collided in Hi from 1 024 and in both halves at 4 096). Each
	// half must separate them on its own.
	for _, ab := range []string{"AC", "GT", "AT"} {
		for n := 1 << 10; n <= 1<<13; n <<= 1 {
			x, y := thueMorse(n, ab[0], ab[1])
			dx, dy := digestBytes(x), digestBytes(y)
			if dx.Lo == dy.Lo || dx.Hi == dy.Hi {
				t.Errorf("Thue–Morse pair over %s at n=%d: digests %+v and %+v share a half", ab, n, dx, dy)
			}
			check(x)
			check(y)
		}
	}
}

// thueMorse returns the n-symbol Thue–Morse word over {a, b} — symbol i
// is a when i has an even number of set bits — and its complement.
func thueMorse(n int, a, b byte) (x, y []byte) {
	x, y = make([]byte, n), make([]byte, n)
	for i := range x {
		x[i], y[i] = a, b
		if bits.OnesCount(uint(i))%2 == 1 {
			x[i], y[i] = b, a
		}
	}
	return x, y
}

// TestSeqDigestSeedIndependence: digests are keyed per process, so
// nothing but their values may depend on the keys. Under two key pairs
// every digest must differ, while interning, spans, DedupPlan and the
// cross-arena ExtensionKey identity (equal exactly when bytes and seeds
// are) come out the same.
func TestSeqDigestSeedIndependence(t *testing.T) {
	saved := digestSeeds
	t.Cleanup(func() { digestSeeds = saved })

	rng := rand.New(rand.NewSource(11))
	var seqs [][]byte
	for range 24 {
		s := make([]byte, 1+rng.Intn(300))
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, s)
	}
	tmX, tmY := thueMorse(4096, 'A', 'C')
	seqs = append(seqs, seqs[3], seqs[7], tmX, tmY, tmX) // interned duplicates
	var cmps []Comparison
	for i := range 60 {
		c := Comparison{H: rng.Intn(len(seqs)), V: rng.Intn(len(seqs)), SeedLen: 1}
		if i%5 == 4 { // a duplicate row
			c = cmps[rng.Intn(len(cmps))]
		}
		cmps = append(cmps, c)
	}
	plan := PlanOf(cmps)

	type outcome struct {
		digests  []SeqDigest
		refs     []SeqRef
		saved    int64
		interned []SeqRef
		dedup    *DedupMap
	}
	run := func() outcome {
		a := mkArena(t, seqs...)
		// The same pool reversed: different numbering, different spans.
		rev := make([][]byte, len(seqs))
		for i, s := range seqs {
			rev[len(seqs)-1-i] = s
		}
		b := mkArena(t, rev...)
		for i, ci := range cmps {
			ka := a.ExtensionKeyOf(ci)
			kb := b.ExtensionKeyOf(Comparison{H: len(seqs) - 1 - ci.H, V: len(seqs) - 1 - ci.V,
				SeedH: ci.SeedH, SeedV: ci.SeedV, SeedLen: ci.SeedLen})
			if ka != kb {
				t.Errorf("row %d: same bytes in two arenas, keys %+v and %+v", i, ka, kb)
			}
			for j, cj := range cmps[:i] {
				same := string(seqs[ci.H]) == string(seqs[cj.H]) && string(seqs[ci.V]) == string(seqs[cj.V])
				if same != (ka == a.ExtensionKeyOf(cj)) {
					t.Errorf("rows %d and %d: equal bytes %v, equal keys %v", j, i, same, !same)
				}
			}
		}
		r, err := RestoreArenaSlabs(slabViews(a), a.Refs())
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{refs: a.Refs(), saved: savedBytes(a), dedup: a.DedupPlan(plan)}
		in := NewArena(0, len(seqs))
		for i, s := range seqs {
			if r.Digest(i) != a.Digest(i) {
				t.Errorf("seq %d: restored digest %+v, appended %+v", i, r.Digest(i), a.Digest(i))
			}
			o.digests = append(o.digests, a.Digest(i))
			o.interned = append(o.interned, in.Ref(mustAppend(t, in, s)))
		}
		return o
	}

	var got [2]outcome
	for k := range got {
		digestSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
		got[k] = run()
	}
	for i := range seqs {
		if d0, d1 := got[0].digests[i], got[1].digests[i]; d0.Lo == d1.Lo || d0.Hi == d1.Hi {
			t.Errorf("seq %d: digest half unchanged across keys: %+v and %+v", i, d0, d1)
		}
	}
	got[0].digests, got[1].digests = nil, nil
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("interning, spans or dedup depend on the digest keys:\n%+v\n%+v", got[0], got[1])
	}
}

// BenchmarkSeqDigest reads one sequence digest at a short-read and a
// long-read-chunk length.
func BenchmarkSeqDigest(b *testing.B) {
	for _, n := range []int{150, 900} {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[i*7%4]
		}
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for range b.N {
				digestSink = digestBytes(s)
			}
		})
	}
}

// digestSink keeps BenchmarkSeqDigest's result live.
var digestSink SeqDigest

// dedupPlanRef is DedupPlan as a Go map from extSpanKey to ordinal: the
// reference the slot table must reproduce row for row. It builds its keys
// itself, so a fault in spanKey shows as a difference.
func dedupPlanRef(a *Arena, p *Plan) *DedupMap {
	n := p.Len()
	m := &DedupMap{RowUID: make([]int32, n)}
	seen := make(map[extSpanKey]int32, n)
	for i := 0; i < n; i++ {
		rh, rv := a.refs[p.H[i]], a.refs[p.V[i]]
		k := extSpanKey{
			hSlab: rh.Slab, hOff: rh.Off, hLen: rh.Len,
			vSlab: rv.Slab, vOff: rv.Off, vLen: rv.Len,
			seedH: p.SeedH[i], seedV: p.SeedV[i], seedLen: p.SeedLen[i],
		}
		uid, ok := seen[k]
		if !ok {
			uid = int32(len(m.UniqueRows))
			seen[k] = uid
			m.UniqueRows = append(m.UniqueRows, int32(i))
			m.Fanout = append(m.Fanout, 0)
		}
		m.RowUID[i] = uid
		m.Fanout[uid]++
	}
	return m
}

// Arena layouts dedupFixture builds.
const (
	oneSlab      = iota // appended into one slab
	rolledSlabs         // appended into 64-byte slabs
	gridSpans           // restored: spans on a grid of slab × offset × length
	slabLenSpans        // restored: spans at offset 0 differing in slab and length, one seed
	layouts
)

// dedupFixture draws an arena and a plan over it. Appended arenas intern
// duplicate sequences (the same bytes appended under several indices,
// across slabs when they roll); a restored grid arena has overlapping
// spans that differ from each other in one field — slab, offset or
// length — so a key that drops a field collapses extensions. Plan rows
// repeat earlier rows literally, take the same pair under other seeds,
// and mirror a row as (V,H) with swapped seeds. The slab-and-length
// layout gives every row offset 0 and one seed, so its distinct keys
// differ only in slab or length and a probe that stopped comparing those
// would merge any two it met.
func dedupFixture(t testing.TB, rng *rand.Rand, layout, distinct, seqs, rows int) (*Arena, *Plan) {
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	var a *Arena
	if layout == gridSpans || layout == slabLenSpans {
		slabs := [][]byte{randSeq(16), randSeq(16), randSeq(16)}
		refs := make([]SeqRef, seqs)
		for i := range refs {
			refs[i] = SeqRef{Slab: int32(rng.Intn(3)), Off: int32(rng.Intn(4)), Len: int32(4 + rng.Intn(3))}
			if layout == slabLenSpans {
				refs[i] = SeqRef{Slab: int32(rng.Intn(len(slabs))), Len: int32(1 + rng.Intn(16))}
			}
		}
		var err error
		if a, err = RestoreArenaSlabs(slabs, refs); err != nil {
			panic(err)
		}
	} else {
		pool := make([][]byte, distinct)
		for i := range pool {
			pool[i] = randSeq(8 + rng.Intn(24))
		}
		a = NewArena(0, seqs)
		if layout == rolledSlabs {
			a.SetMaxSlabBytes(64)
		}
		for range seqs {
			mustAppend(t, a, pool[rng.Intn(distinct)])
		}
	}
	cmps := make([]Comparison, 0, rows)
	for range rows {
		var c Comparison
		switch r := rng.Intn(10); {
		case r < 2 && len(cmps) > 0: // a literal repeat
			c = cmps[rng.Intn(len(cmps))]
		case r < 4 && len(cmps) > 0: // the same pair under another seed
			c = cmps[rng.Intn(len(cmps))]
			c.SeedH, c.SeedV = rng.Intn(2), rng.Intn(2)
		case r < 6 && len(cmps) > 0: // mirrored
			p := cmps[rng.Intn(len(cmps))]
			c = Comparison{H: p.V, V: p.H, SeedH: p.SeedV, SeedV: p.SeedH, SeedLen: p.SeedLen}
		default:
			c = Comparison{H: rng.Intn(seqs), V: rng.Intn(seqs), SeedH: rng.Intn(2), SeedV: rng.Intn(2), SeedLen: 1 + rng.Intn(2)}
		}
		if layout == slabLenSpans {
			c.SeedH, c.SeedV, c.SeedLen = 0, 0, 1
		}
		cmps = append(cmps, c)
	}
	return a, PlanOf(cmps)
}

func checkDedupAgainstRef(t *testing.T, a *Arena, p *Plan) {
	t.Helper()
	got, want := a.DedupPlan(p), dedupPlanRef(a, p)
	if !reflect.DeepEqual(got, want) {
		for i := range want.RowUID {
			if got.RowUID[i] != want.RowUID[i] {
				t.Fatalf("row %d of %d: uid %d, reference %d (%d vs %d unique)",
					i, p.Len(), got.RowUID[i], want.RowUID[i], got.Unique(), want.Unique())
			}
		}
		t.Fatalf("DedupPlan differs from the map reference:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzDedupPlan holds the slot table to the map reference on random
// plans: interned duplicates, the same pair under several seeds, mirrored
// pairs, single- and multi-slab spines, and restored spines whose spans
// differ in a single field. The last seed's 96 rows differ only in slab
// or length, so under any dedupSeed some of them share a probe chain.
func FuzzDedupPlan(f *testing.F) {
	f.Add(int64(1), uint8(oneSlab), uint8(3), uint8(12), uint16(40))
	f.Add(int64(2), uint8(oneSlab), uint8(1), uint8(1), uint16(1))
	f.Add(int64(3), uint8(rolledSlabs), uint8(20), uint8(60), uint16(500))
	f.Add(int64(4), uint8(rolledSlabs), uint8(5), uint8(9), uint16(0))
	f.Add(int64(5), uint8(gridSpans), uint8(0), uint8(40), uint16(2000))
	f.Add(int64(6), uint8(slabLenSpans), uint8(0), uint8(199), uint16(96))
	f.Fuzz(func(t *testing.T, seed int64, layout, distinct, seqs uint8, rows uint16) {
		a, p := dedupFixture(t, rand.New(rand.NewSource(seed)), int(layout)%layouts,
			1+int(distinct)%32, 1+int(seqs), int(rows)%4096)
		checkDedupAgainstRef(t, a, p)
	})
}

// TestDedupPlanLongProbeChains runs the slot table at 120 000 rows, where
// probe chains run long and most probes compare a key that differs from
// the representative's: over a few hundred appended sequences in rolled
// slabs, and over a restored grid of overlapping spans.
func TestDedupPlanLongProbeChains(t *testing.T) {
	for _, layout := range []int{rolledSlabs, gridSpans} {
		a, p := dedupFixture(t, rand.New(rand.NewSource(45)), layout, 300, 900, 120000)
		if a.NumSlabs() < 2 {
			t.Fatalf("layout %d: fixture spans %d slab; want several", layout, a.NumSlabs())
		}
		m := a.DedupPlan(p)
		if m.Duplicates() < p.Len()/4 || m.Unique() < p.Len()/20 {
			t.Fatalf("layout %d: %d unique of %d rows: want both duplicates and distinct extensions in bulk",
				layout, m.Unique(), p.Len())
		}
		checkDedupAgainstRef(t, a, p)
	}
}
