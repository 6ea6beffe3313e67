// Duplicate-extension elimination: the content-interned arena already
// knows when two comparisons are byte-identical work, so the host can map
// every planned extension to a unique representative and align each
// distinct (pair, seed, params) extension once — the dedup-before-align
// staging overlap pipelines (ELBA, PASTIS candidate resubmission) and
// LOGAN-class batch aligners get much of their throughput from.

package workload

import "hash/maphash"

// ExtensionKey is the canonical content-addressed identity of one seed
// extension: the 128-bit content digests and lengths of H and V plus the
// seed geometry. Two comparisons from different jobs in one process —
// different arenas, different pool numbering — produce equal keys exactly
// when the bytes and the seed anchor are identical, up to a collision of
// two independently keyed 64-bit hashes whose keys the submitter never
// sees. It is the cross-job result-cache key and lives only as long as
// the process; within one arena, DedupPlan uses exact span identity
// instead, so in-plan dedup never depends on a hash at all.
type ExtensionKey struct {
	// H and V are the sequences' content digests.
	H, V SeqDigest
	// HLen and VLen pin the sequence lengths (a digest collision must
	// also collide at equal length to matter).
	HLen, VLen int32
	// SeedH, SeedV and SeedLen anchor the extension. Extensions are
	// directional: (H,V) and (V,H) with mirrored seeds are distinct keys.
	SeedH, SeedV, SeedLen int32
}

// ExtensionKeyOf derives comparison c's content-addressed key from the
// arena's digests. c must validate against the arena.
func (a *Arena) ExtensionKeyOf(c Comparison) ExtensionKey {
	return ExtensionKey{
		H: a.digests[c.H], V: a.digests[c.V],
		HLen: a.refs[c.H].Len, VLen: a.refs[c.V].Len,
		SeedH: int32(c.SeedH), SeedV: int32(c.SeedV), SeedLen: int32(c.SeedLen),
	}
}

// DedupMap maps a plan's comparison rows onto their unique-extension
// representatives: execution runs per unique extension, reports stay per
// comparison by fanning each representative's result back out.
type DedupMap struct {
	// RowUID maps each plan row to its unique-extension ordinal.
	RowUID []int32
	// UniqueRows lists, per ordinal, the representative plan row (the
	// first appearance of that extension).
	UniqueRows []int32
	// Fanout counts, per ordinal, how many rows share the extension
	// (1 = no duplicates).
	Fanout []int32
}

// Unique returns the number of distinct extensions.
func (m *DedupMap) Unique() int { return len(m.UniqueRows) }

// Duplicates returns the number of rows served by another row's
// extension.
func (m *DedupMap) Duplicates() int { return len(m.RowUID) - len(m.UniqueRows) }

// extSpanKey is the exact in-arena identity of one extension: the
// canonical spine spans of both sequences plus the seed geometry. Content
// interning guarantees that, within one arena, identical bytes share one
// canonical span — so span equality is byte equality and dedup needs no
// content hash for equality, making in-plan dedup immune to hash
// collisions by construction. The slab indices are part of the span
// identity: offsets are only meaningful within a slab, so two spans at
// equal offsets in different slabs must never collapse.
type extSpanKey struct {
	hSlab, hOff, hLen, vSlab, vOff, vLen int32
	seedH, seedV, seedLen                int32
}

// spanKey builds plan row i's extSpanKey.
func (a *Arena) spanKey(p *Plan, i int32) extSpanKey {
	rh, rv := a.refs[p.H[i]], a.refs[p.V[i]]
	return extSpanKey{
		hSlab: rh.Slab, hOff: rh.Off, hLen: rh.Len,
		vSlab: rv.Slab, vOff: rv.Off, vLen: rv.Len,
		seedH: p.SeedH[i], seedV: p.SeedV[i], seedLen: p.SeedLen[i],
	}
}

// dedupSeed keys the slot hash of DedupPlan's table. Drawn once per
// process like digestSeeds, so a submitter cannot line its rows up on one
// probe chain; the hash only places a key, it never decides equality.
var dedupSeed = maphash.MakeSeed()

// DedupPlan computes the unique-extension mapping of plan p over the
// arena. Rows with different pool indices but interned-identical bytes
// (and equal seed geometry) collapse onto one representative; identical
// pairs with different seeds, and (H,V) vs (V,H), never do.
//
// The lookup table is a power-of-two slice of at least 2·rows slots,
// probed linearly from the key's hash. A first pass fills each new key's
// slot with its first row + 1 and records every row's slot, so the
// unique count is known before UniqueRows and Fanout are made, once and
// exact; a second pass, in row order, numbers each slot the first time a
// row reaches it — at its first row, so ordinals follow first
// appearance — and stores -(uid+1) there. A probe compares the full
// extSpanKey rebuilt from the slot's first row, so equality is exact span
// equality whatever the hash does.
func (a *Arena) DedupPlan(p *Plan) *DedupMap {
	n := p.Len()
	m := &DedupMap{RowUID: make([]int32, n)}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	slots := make([]int32, size)
	mask := uint64(size - 1)
	unique := 0
	for i := int32(0); i < int32(n); i++ {
		k := a.spanKey(p, i)
		pos := maphash.Comparable(dedupSeed, k) & mask
		for {
			s := slots[pos]
			if s == 0 {
				slots[pos] = i + 1
				unique++
				break
			}
			if a.spanKey(p, s-1) == k {
				break
			}
			pos = (pos + 1) & mask
		}
		m.RowUID[i] = int32(pos)
	}
	if unique > 0 { // an empty plan leaves both nil
		m.UniqueRows, m.Fanout = make([]int32, unique), make([]int32, unique)
	}
	next := int32(0)
	for i, pos := range m.RowUID {
		if s := slots[pos]; s > 0 { // i is the slot's first row
			m.UniqueRows[next] = s - 1
			next++
			slots[pos] = -next
		}
		uid := -slots[pos] - 1
		m.RowUID[i] = uid
		m.Fanout[uid]++
	}
	return m
}
