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
		a.Append(s)
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
		interned []int
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
		r, err := RestoreArenaSlabs(a.SlabViews(), a.Refs())
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{refs: a.Refs(), saved: a.SavedBytes(), dedup: a.DedupPlan(plan)}
		in := NewArena(0, len(seqs))
		for i, s := range seqs {
			if r.Digest(i) != a.Digest(i) {
				t.Errorf("seq %d: restored digest %+v, appended %+v", i, r.Digest(i), a.Digest(i))
			}
			o.digests = append(o.digests, a.Digest(i))
			o.interned = append(o.interned, in.Intern(s))
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
