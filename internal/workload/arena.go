// The sequence pool Ω as the paper's vertex-packing step wants it (§4.3):
// a spine of byte slabs plus (slab, offset, length) spans, so every layer
// above — partitioner, batcher, driver, kernel — addresses sequences by
// reference instead of re-slicing and re-copying per comparison. A
// content-hash index interns identical sequences on append, the way
// Scrooge/LOGAN-class aligners keep their device-resident pools tight.
//
// The spine is multi-slab: per-slab offsets stay exact 32-bit, and the
// pool as a whole is unbounded — when the open slab would overflow its
// cap, the arena seals it and rolls a fresh one, so streaming ingestion
// past 2 GiB just keeps appending. Sealed slabs are immutable and can be
// spilled to disk and faulted back on demand (see spill.go), which is
// what makes datasets larger than RAM schedulable.

package workload

import (
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"

	"github.com/sram-align/xdropipu/internal/seqio"
)

// SeqRef is a sequence span inside the arena spine: slab Slab, bytes
// [Off, Off+Len). Spans are 12 bytes, so columnar tables of them stay
// cache-resident where a [][]byte pool costs 24 bytes of header plus a
// pointer chase per sequence. Single-slab pools carry Slab == 0
// everywhere, which keeps their encodings and goldens identical to the
// pre-spine stack.
type SeqRef struct {
	// Slab indexes the spine slab holding the span.
	Slab int32
	// Off is the span's byte offset into its slab.
	Off int32
	// Len is the span's length in symbols.
	Len int32
}

// End returns the exclusive end offset of the span within its slab.
func (r SeqRef) End() int32 { return r.Off + r.Len }

// MaxSlabBytes bounds one arena slab at 2 GiB so 32-bit offsets stay
// exact. It is no longer a pool limit: an arena rolls to a fresh slab
// when the open one would overflow, so the spine as a whole is bounded
// only by storage. A single sequence must still fit one slab.
const MaxSlabBytes = 1<<31 - 1

// slab is one segment of the spine. data is accessed through an atomic
// pointer so readers on the hot path never take the arena lock: it holds
// the resident bytes, or nil while the slab is spilled. All other fields
// are guarded by the arena mutex once residency operations are in play.
type slab struct {
	data atomic.Pointer[[]byte]
	// size is the slab's byte length, valid even while spilled.
	size int
	// sealed is set once the slab stops growing.
	sealed bool
	// pins counts Pin holders; a pinned slab cannot be spilled.
	pins int
	// path is the slab's spill file, written at most once ("" = never
	// spilled). Slabs are immutable once sealed, so the file never needs
	// rewriting.
	path string
	// sum is the CRC-32C of the bytes written to path, verified on every
	// fault-in: a same-length corrupt spill file must fail the pin, not
	// feed the kernel garbage.
	sum uint32
}

// bytes returns the resident view, or nil while spilled.
func (sl *slab) bytes() []byte {
	if p := sl.data.Load(); p != nil {
		return *p
	}
	return nil
}

func (sl *slab) setBytes(b []byte) { sl.data.Store(&b) }

// Arena is the packed sequence pool Ω: a spine of slabs addressed by
// SeqRef spans. Appending interns by content hash — a sequence already
// in the pool is stored once and every later append of the same bytes
// shares its span — and slab contents are immutable once datasets or
// tiles reference them, so any number of concurrent jobs share one copy
// of Ω. Appends are single-writer: the arena must not be appended to
// concurrently or once shared with the execution stack. Residency
// operations (Spill/Pin/Release) are safe to call concurrently with
// reads and with each other.
type Arena struct {
	slabs []*slab
	refs  []SeqRef
	// digests holds each sequence's 128-bit content fingerprint (interned
	// duplicates copy their canonical's), the content-addressed identity
	// behind ExtensionKey and the cross-job result cache.
	digests []SeqDigest
	// index maps a content hash (digest Lo) to the first canonical
	// sequence index filed under it (first appearance of a distinct byte
	// string); collided holds, in index order, the later canonicals whose
	// Lo equals an earlier one's — nil until a collision happens, which
	// under a keyed 64-bit hash is all but never. A restored spine's index
	// is nil until its first append (fileRestored).
	index    map[uint64]int32
	collided map[uint64][]int32
	// maxSlab is the per-slab byte cap (default MaxSlabBytes; tests and
	// benchmarks force it small to exercise slab rolls without
	// multi-GiB fixtures).
	maxSlab int

	// mu guards residency state: spillDir, slab seal/pin/path fields and
	// the spilled↔resident transitions. Slab data itself is read through
	// the atomic pointer, so resident readers never contend here.
	mu       sync.Mutex
	spillDir string
	// spills/faults count slab writes to and reads from spill files.
	spills, faults int64
	spilledBytes   int64
}

// NewArena returns an empty arena with capacity hints: sizeHint slab bytes
// and seqHint sequence slots (either may be 0).
func NewArena(sizeHint, seqHint int) *Arena {
	a := &Arena{
		refs:    make([]SeqRef, 0, seqHint),
		digests: make([]SeqDigest, 0, seqHint),
		index:   make(map[uint64]int32, seqHint),
		maxSlab: MaxSlabBytes,
	}
	if sizeHint > 0 {
		sl := &slab{}
		sl.setBytes(make([]byte, 0, min(sizeHint, MaxSlabBytes)))
		a.slabs = append(a.slabs, sl)
	}
	return a
}

// SetMaxSlabBytes overrides the per-slab byte cap (clamped to
// [1, MaxSlabBytes]). Smaller caps make the arena roll slabs earlier;
// existing spans are untouched, only future appends see the new cap.
// Tests and benchmarks use tiny caps to force multi-slab spines without
// multi-GiB fixtures.
func (a *Arena) SetMaxSlabBytes(n int) {
	if n <= 0 {
		panic("workload: SetMaxSlabBytes requires a positive cap")
	}
	if n > MaxSlabBytes {
		n = MaxSlabBytes
	}
	a.maxSlab = n
}

// SeqDigest is a 128-bit keyed content fingerprint of a sequence's bytes:
// two independent 64-bit hashes under two process-random keys. Lo doubles
// as the arena's intern-index key; the pair (plus the explicit length
// carried by ExtensionKey) identifies sequence content across the arenas
// of one process, which is what lets a result cache recognise
// byte-identical work from different jobs with different pool numbering.
// Digests depend on the bytes and the process's keys alone — not on which
// slab a sequence landed in — and mean nothing to another process: no
// spill file, wire format, golden or fingerprint carries one.
type SeqDigest struct {
	Lo, Hi uint64
}

// digestSeeds key the two digest halves. They are drawn once per process,
// so a client cannot construct a colliding pair offline the way it can
// against any fixed hash (the Thue–Morse word and its complement collide
// FNV-1a and odd-base polynomial hashes at a few KiB).
var digestSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// digestBytes computes both fingerprint halves: two hash/maphash calls
// (AES-based on amd64), no hash.Hash allocation.
func digestBytes(s []byte) SeqDigest {
	return SeqDigest{Lo: maphash.Bytes(digestSeeds[0], s), Hi: maphash.Bytes(digestSeeds[1], s)}
}

// Len returns the number of sequences (pool indices) in the arena. Interned
// duplicates count separately: indices are stable, only storage is shared.
func (a *Arena) Len() int { return len(a.refs) }

// Seq returns sequence i as a zero-copy view into its slab, faulting the
// slab in from its spill file if needed. Callers must not mutate it once
// the arena is shared.
func (a *Arena) Seq(i int) []byte {
	return a.seqBytes(a.refs[i])
}

// seqBytes resolves a span to its bytes, faulting in the slab if spilled.
func (a *Arena) seqBytes(r SeqRef) []byte {
	return a.SlabView(int(r.Slab))[r.Off:r.End():r.End()]
}

// Ref returns sequence i's span.
func (a *Arena) Ref(i int) SeqRef { return a.refs[i] }

// Digest returns sequence i's 128-bit content fingerprint. Interned
// duplicates share their canonical sequence's digest, so equal digests
// (at equal length) mean equal bytes across any two arenas of this
// process up to a keyed-hash collision — within one arena, equal spans
// are the exact test. Digests from different processes are not
// comparable.
func (a *Arena) Digest(i int) SeqDigest { return a.digests[i] }

// Refs returns the span table (shared; callers must not mutate).
func (a *Arena) Refs() []SeqRef { return a.refs }

// NumSlabs returns the number of slabs in the spine.
func (a *Arena) NumSlabs() int { return len(a.slabs) }

// Slab returns the backing slab of a single-slab arena (shared; callers
// must not mutate). The capacity is capped at the length, so an append
// through the returned slice copies instead of scribbling over the
// arena's spare capacity. It panics on a multi-slab spine — those
// callers must use SlabView and honour SeqRef.Slab.
func (a *Arena) Slab() []byte {
	if len(a.slabs) == 0 {
		return nil
	}
	if len(a.slabs) > 1 {
		panic("workload: Slab() on a multi-slab arena; use SlabView")
	}
	return a.SlabView(0)
}

// SlabView returns slab si's resident bytes (shared; callers must not
// mutate), faulting the slab in from its spill file if needed. The view
// does not pin the slab — use Pin around execution windows that must not
// refault.
func (a *Arena) SlabView(si int) []byte {
	sl := a.slabs[si]
	if b := sl.bytes(); b != nil || sl.size == 0 {
		return b[:len(b):len(b)]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, err := a.faultInLocked(sl)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return b[:len(b):len(b)]
}

// SeqViews materialises the [][]byte view over the pool: one zero-copy
// slab span per sequence, in index order.
func (a *Arena) SeqViews() [][]byte {
	seqs := make([][]byte, a.Len())
	for i := range seqs {
		seqs[i] = a.Seq(i)
	}
	return seqs
}

// lookup returns the canonical index of s if its bytes are already pooled.
// Comparing against a spilled slab faults it in.
func (a *Arena) lookup(h uint64, s []byte) (int32, bool) {
	return a.findCanonical(h, func(r SeqRef) bool {
		return int(r.Len) == len(s) && string(a.seqBytes(r)) == string(s)
	})
}

// findCanonical returns the first canonical sequence filed under digest
// half lo whose span satisfies match. It files a restored spine's
// canonicals first if nothing has yet.
func (a *Arena) findCanonical(lo uint64, match func(SeqRef) bool) (int32, bool) {
	if a.index == nil {
		a.fileRestored()
	}
	ci, ok := a.index[lo]
	if !ok {
		return 0, false
	}
	if match(a.refs[ci]) {
		return ci, true
	}
	for _, ci := range a.collided[lo] {
		if match(a.refs[ci]) {
			return ci, true
		}
	}
	return 0, false
}

// file records sequence idx as a canonical under digest half lo.
func (a *Arena) file(lo uint64, idx int32) {
	if _, ok := a.index[lo]; !ok {
		a.index[lo] = idx
		return
	}
	if a.collided == nil {
		a.collided = make(map[uint64][]int32)
	}
	a.collided[lo] = append(a.collided[lo], idx)
}

// fileRestored builds the intern index of a restored spine, which
// RestoreArenaSlabs leaves to the first append: a decoded submission is
// read, never appended to. Each span's first appearance is filed, in
// index order; a later index with the same span is an interned copy.
func (a *Arena) fileRestored() {
	a.index = make(map[uint64]int32, len(a.refs))
	for i, r := range a.refs {
		lo := a.digests[i].Lo
		if _, dup := a.findCanonical(lo, func(c SeqRef) bool { return c == r }); !dup {
			a.file(lo, int32(i))
		}
	}
}

// openSlab returns the growing tail slab, rolling a fresh one if the
// spine is empty, the tail is sealed, or appending need more bytes would
// overflow the cap.
func (a *Arena) openSlab(need int) *slab {
	if n := len(a.slabs); n > 0 {
		sl := a.slabs[n-1]
		if !sl.sealed && sl.size+need <= a.maxSlab {
			return sl
		}
		if !sl.sealed {
			// Roll: seal the tail in place; the fresh slab below becomes
			// the open one.
			sl.sealed = true
		}
	}
	sl := &slab{}
	sl.setBytes([]byte{})
	a.slabs = append(a.slabs, sl)
	return sl
}

// TryAppend adds s to the pool and returns its new sequence index.
// Storage is interned: when identical bytes are already pooled the new
// index shares the existing span and the spine does not grow. Index
// assignment is always sequential, so callers' external numbering (reads,
// comparisons) survives interning untouched. It errors only when a single
// sequence cannot fit one slab; the check runs only when the bytes are
// new — interned duplicates never grow the spine, so they always fit.
// When the open slab would overflow the per-slab cap, the arena seals it
// and rolls a fresh slab instead of erroring: streaming ingestion past
// the cap is the normal path, not a failure.
func (a *Arena) TryAppend(s []byte) (int, error) {
	idx := len(a.refs)
	d := digestBytes(s)
	if ci, ok := a.lookup(d.Lo, s); ok {
		a.refs = append(a.refs, a.refs[ci])
		a.digests = append(a.digests, a.digests[ci])
		return idx, nil
	}
	if len(s) > a.maxSlab {
		return 0, fmt.Errorf("workload: sequence of %d bytes exceeds the %d-byte slab cap", len(s), a.maxSlab)
	}
	sl := a.openSlab(len(s))
	b := sl.bytes()
	ref := SeqRef{Slab: int32(len(a.slabs) - 1), Off: int32(len(b)), Len: int32(len(s))}
	b = append(b, s...)
	sl.setBytes(b)
	sl.size = len(b)
	a.refs = append(a.refs, ref)
	a.digests = append(a.digests, d)
	a.file(d.Lo, int32(idx))
	return idx, nil
}

// arenaMark snapshots the arena's append state so a failed multi-record
// ingest can be undone atomically — including any slab rolls it caused.
type arenaMark struct {
	refs int
	// slabs is the spine length; open the byte length of the then-tail
	// slab; sealed whether that tail was already sealed.
	slabs  int
	open   int
	sealed bool
}

func (a *Arena) mark() arenaMark {
	m := arenaMark{refs: len(a.refs), slabs: len(a.slabs)}
	if m.slabs > 0 {
		tail := a.slabs[m.slabs-1]
		m.open, m.sealed = tail.size, tail.sealed
	}
	return m
}

// rollback restores the arena to a previous mark: spans, digests and slab
// bytes appended since are dropped and their intern-index entries removed,
// so a retry after a failed ingest re-interns nothing twice and mints no
// phantom indices. Slabs rolled since the mark are removed outright and
// the then-tail slab is reopened and truncated to its marked length, so
// the restore is atomic across slab boundaries too. Must run before any
// rolled-back span is shared.
func (a *Arena) rollback(m arenaMark) {
	for i := int32(len(a.refs)) - 1; i >= int32(m.refs); i-- {
		// Only canonical spans (first appearance of their bytes) are
		// filed, in index order, so walking down from the top unfiles
		// each one as the last filed under its hash; an interned
		// duplicate is filed nowhere and matches neither test.
		lo := a.digests[i].Lo
		if c := a.collided[lo]; len(c) > 0 && c[len(c)-1] == i {
			if c = c[:len(c)-1]; len(c) == 0 {
				delete(a.collided, lo)
			} else {
				a.collided[lo] = c
			}
		} else if ci, ok := a.index[lo]; ok && ci == i {
			delete(a.index, lo)
		}
	}
	a.refs = a.refs[:m.refs]
	a.digests = a.digests[:m.refs]
	a.slabs = a.slabs[:m.slabs]
	if m.slabs > 0 {
		tail := a.slabs[m.slabs-1]
		// The marked tail cannot have been spilled since the mark: only
		// sealed slabs spill, and if it was open at the mark, rolling it
		// sealed happened after — a state this rollback undoes. If it was
		// already sealed at the mark, nothing was appended to it since.
		if !m.sealed {
			b := tail.bytes()[:m.open]
			tail.setBytes(b)
			tail.size = m.open
			tail.sealed = false
		}
	}
}

// AppendFasta parses FASTA records from r, validating against alpha, and
// packs each record's symbols straight into the spine — no per-record
// sequence allocation, rolling to a fresh slab whenever the open one
// fills, so streams larger than one slab ingest without special casing.
// It returns the record IDs in pool-index order.
//
// The append is atomic: a mid-stream error (bad record, oversized single
// sequence) rolls the arena back to its pre-call state — slab rolls
// included — so no partial record set lands silently and a retry with a
// corrected stream interns exactly as if the failed call never happened.
func (a *Arena) AppendFasta(r io.Reader, alpha *seqio.Alphabet) ([]string, error) {
	m := a.mark()
	var ids []string
	err := seqio.ReadFastaFunc(r, alpha, func(id, desc string, seq []byte) error {
		if _, err := a.TryAppend(seq); err != nil {
			return fmt.Errorf("record %q: %w", id, err)
		}
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		a.rollback(m)
		return nil, err
	}
	return ids, nil
}

// ValidatePlan checks every comparison of p against the arena: sequence
// indices in the pool, seeds in range. This is the single bounds-checking
// implementation (Dataset.Validate delegates here). It loops over the
// columns and reads only the span table, so it never materialises a row
// or faults a spilled slab in.
func (a *Arena) ValidatePlan(p *Plan) error {
	nseqs := uint(a.Len())
	for i, h := range p.H {
		if v := p.V[i]; uint(h) >= nseqs || uint(v) >= nseqs {
			return fmt.Errorf("workload: comparison %d references missing sequence", i)
		}
		// ExtensionLens subtracts in int, so no int32 sum wraps the check.
		if p.SeedLen[i] <= 0 || p.SeedH[i] < 0 || p.SeedV[i] < 0 {
			return fmt.Errorf("workload: comparison %d seed out of range", i)
		}
		if _, _, rh, rv := p.ExtensionLens(a.refs, i); rh < 0 || rv < 0 {
			return fmt.Errorf("workload: comparison %d seed out of range", i)
		}
	}
	return nil
}

// NewDataset wraps the arena and a comparison plan over it as a Dataset.
// It touches no sequence bytes — spilled slabs stay spilled until a batch
// pins them — and validates nothing: the BuildBatches gate does. The
// arena must not be appended to afterwards.
func (a *Arena) NewDataset(name string, p *Plan, protein bool) *Dataset {
	return &Dataset{Name: name, Comparisons: p.Comparisons(), Protein: protein, arena: a, plan: p}
}
