// Wire-restore surface: rebuilding an arena spine from its serialized
// parts. The service tier ships datasets as (slabs, refs, plan columns);
// RestoreArenaSlabs turns the first two back into a full Arena — digests
// included, the intern index filed on the first append — without
// re-appending byte by byte, so the restored spine has the sender's
// indices and spans. The wire carries no
// digests: they are computed here from the bytes under this process's
// keys, so the restored arena's ExtensionKeys equal those of any arena
// in this process holding the same content, which is the result-cache
// identity.

package workload

import (
	"cmp"
	"fmt"
	"slices"
)

// RestoreArenaSlabs rebuilds an arena spine from its slabs and span
// table, the inverse of reading SlabView and Refs() on the wire's
// encode side. The slabs and the span table are adopted, not copied — the
// caller must not mutate them afterwards (slab contents are immutable
// once shared) — and the slabs come back sealed, so the restored spine is
// immediately spillable and a later append rolls a fresh slab. Spans are
// validated against their slabs; exact duplicate spans are recognised as
// interned (they share their canonical's digest), so a round-tripped
// arena interns exactly as the original did.
func RestoreArenaSlabs(slabs [][]byte, refs []SeqRef) (*Arena, error) {
	a := &Arena{
		refs:    refs[:len(refs):len(refs)],
		digests: make([]SeqDigest, len(refs)),
		maxSlab: MaxSlabBytes,
		slabs:   make([]*slab, len(slabs)),
	}
	for si, b := range slabs {
		if len(b) > MaxSlabBytes {
			return nil, fmt.Errorf("workload: restored slab %d exceeds %d bytes", si, int64(MaxSlabBytes))
		}
		sl := &slab{size: len(b), sealed: true}
		sl.setBytes(b[:len(b):len(b)])
		a.slabs[si] = sl
	}
	for i, r := range a.refs {
		if r.Slab < 0 || int(r.Slab) >= len(slabs) {
			return nil, fmt.Errorf("workload: restored span %d references slab %d of a %d-slab spine",
				i, r.Slab, len(slabs))
		}
		// Off+Len is compared in 64 bits: the int32 sum End() returns wraps
		// negative for a hostile span such as (0x7fffffff, 1).
		if r.Off < 0 || r.Len < 0 || int64(r.Off)+int64(r.Len) > int64(len(slabs[r.Slab])) {
			return nil, fmt.Errorf("workload: restored span %d (%d+%d) outside the %d-byte slab %d",
				i, r.Off, r.Len, len(slabs[r.Slab]), r.Slab)
		}
	}
	// An exact duplicate span is an interned copy: it takes the digest of
	// the span's first appearance instead of hashing the bytes again — a
	// hostile payload may repeat one long span many times. Sorting the
	// indices by span (then by index) puts each first appearance ahead of
	// its copies.
	order := make([]int32, len(refs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		rx, ry := refs[x], refs[y]
		return cmp.Or(cmp.Compare(rx.Slab, ry.Slab), cmp.Compare(rx.Off, ry.Off),
			cmp.Compare(rx.Len, ry.Len), cmp.Compare(x, y))
	})
	for k, i := range order {
		r := refs[i]
		if k > 0 && refs[order[k-1]] == r {
			a.digests[i] = a.digests[order[k-1]]
			continue
		}
		a.digests[i] = digestBytes(slabs[r.Slab][r.Off:r.End()])
	}
	return a, nil
}
