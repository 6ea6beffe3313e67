// The cross-job result cache: a bounded, sharded, recency-approximating
// cache over finished extensions, shared by every submission an engine
// serves. Keys are the driver's CacheKey — the extension's
// content-addressed identity (sequence digests, lengths, seed geometry)
// plus a fingerprint of the kernel configuration — so two clients
// submitting byte-identical work under the same scoring regime hit each
// other's results regardless of pool numbering, the way LOGAN-class batch
// aligners avoid ever re-extending identical seed pairs.
//
// A shard is one flat slice of entries indexed by an open-addressed table
// of 64-bit slots, placed by a pre-hash of the whole key. A hit reads one
// slot and one entry and sets one bit in it (second-chance eviction); a
// plan's lookups arrive as one batch, so each shard is locked once per
// plan and independent lookups overlap their cache misses instead of
// queueing behind a lock round-trip each.

package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// DefaultResultCacheEntries is the capacity WithResultCache(0) selects.
const DefaultResultCacheEntries = 1 << 16

// cacheShards fixes the shard count; per-shard locks keep concurrent
// builders and assemblers from serialising on one mutex. The shard is the
// pre-hash's top four bits.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// cacheEntry is one resident extension: everything a lookup touches sits
// in the one entry it has to read anyway.
type cacheEntry struct {
	hash uint64 // the pre-hash the entry is filed under
	ref  bool   // hit since the clock hand last passed
	key  driver.CacheKey
	out  ipukernel.AlignOut
}

// cacheShard holds its entries in one slice that grows to the shard's
// limit and is then reused entry by entry, and finds them through slots:
// a power-of-two table, at most half full, of words tag<<32 | index+1
// (0 is empty), where the tag is the pre-hash's upper half and its low
// bits pick the word's home slot. A word sits at the first empty slot at
// or after its home (linear probing), and a removal shifts the words
// behind it back, so no probe sequence ever has a gap. find confirms a
// tag match on the full key, so a pre-hash collision can never alias two
// extensions.
type cacheShard struct {
	mu      sync.Mutex
	slots   []uint64
	entries []cacheEntry
	hand    int // next entry the eviction clock examines
}

// resultCache implements driver.ResultCache and its batched lookup,
// bounded at construction, with hit/miss/evict counters surfaced through
// Engine.Stats.
type resultCache struct {
	perShard int
	shards   [cacheShards]cacheShard

	hits, misses, evictions atomic.Int64
	// payloadBytes is Σ entryBytes over the resident entries. The bound is
	// per entry, and with traceback enabled entries carry alignment-length
	// strings — this counter is what makes that growth observable
	// (Stats.CacheBytes) instead of silent.
	payloadBytes atomic.Int64
}

// cacheEntryOverheadBytes is an entry's share of what its shard holds
// beside the entries: its slots (the table doubles past half full, so
// 2–4 eight-byte slots an entry: 16–32 bytes) and the entry slice's
// growth slack (at most an eighth of a 200-byte entry: 0–25 bytes), each
// taken at the middle of its range.
// TestCacheBytesTracksHeap holds the sum to the heap within 10 %.
const cacheEntryOverheadBytes = 36

// cacheEntryFixedBytes is what an entry occupies outside its CIGAR.
const cacheEntryFixedBytes = int64(unsafe.Sizeof(cacheEntry{})) + cacheEntryOverheadBytes

func entryBytes(out ipukernel.AlignOut) int64 {
	return cacheEntryFixedBytes + int64(len(out.Cigar))
}

func newResultCache(entries int) *resultCache {
	if entries <= 0 {
		entries = DefaultResultCacheEntries
	}
	return &resultCache{perShard: (entries + cacheShards - 1) / cacheShards}
}

// hashKey mixes every field of the key into the 64-bit pre-hash. The
// digest halves are already uniform; each is folded with part of the
// geometry and multiplied in its own lane, so (H,V) and (V,H) differ, and
// a final avalanche spreads the lanes over the shard bits.
func hashKey(k *driver.CacheKey) uint64 {
	e := &k.Ext
	lens := uint64(uint32(e.HLen))<<32 | uint64(uint32(e.VLen))
	seed := uint64(uint32(e.SeedH))<<32 | uint64(uint32(e.SeedV))
	h := (e.H.Lo^k.Kernel)*0x9e3779b97f4a7c15 ^
		bits.RotateLeft64((e.H.Hi^lens)*0xbf58476d1ce4e5b9, 16) ^
		bits.RotateLeft64((e.V.Lo^seed)*0x94d049bb133111eb, 32) ^
		bits.RotateLeft64((e.V.Hi^uint64(uint32(e.SeedLen)))*0xff51afd7ed558ccd, 48)
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func shardOf(h uint64) int { return int(h >> (64 - cacheShardBits)) }

// resident counts the entries the cache holds.
func (c *resultCache) resident() int64 {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return int64(n)
}

// minCacheSlots is the size of a shard's first slot table.
const minCacheSlots = 8

// find returns the index of the entry holding k, or -1. The pre-hash
// places the probe and its tag filters the words on the way; the match
// is the full key.
func (s *cacheShard) find(h uint64, k *driver.CacheKey) int32 {
	if len(s.slots) == 0 {
		return -1
	}
	tag, mask := h>>32, uint64(len(s.slots)-1)
	for pos := tag & mask; ; pos = (pos + 1) & mask {
		w := s.slots[pos]
		if w == 0 {
			return -1
		}
		if w>>32 == tag {
			if i := int32(uint32(w)) - 1; s.entries[i].key == *k {
				return i
			}
		}
	}
}

// lookup is find plus a hit's copy into out and its one write: the
// second-chance bit, and only when it is clear, so a hot entry's line
// stays clean.
func (s *cacheShard) lookup(h uint64, k *driver.CacheKey, out *ipukernel.AlignOut) bool {
	i := s.find(h, k)
	if i < 0 {
		return false
	}
	e := &s.entries[i]
	if !e.ref {
		e.ref = true
	}
	*out = e.out
	return true
}

// put stores out under k, refreshing in place when k is resident
// (results are deterministic per key, so overwrite == refresh) and
// reusing the clock's victim when the shard already holds limit entries.
// It returns the change in resident bytes and whether an entry was
// evicted.
func (s *cacheShard) put(h uint64, k *driver.CacheKey, out ipukernel.AlignOut, limit int) (bytesDelta int64, evicted bool) {
	bytesDelta = entryBytes(out)
	if i := s.find(h, k); i >= 0 {
		e := &s.entries[i]
		bytesDelta -= entryBytes(e.out)
		e.out, e.ref = out, true
		return bytesDelta, false
	}
	var i int32
	if len(s.entries) < limit {
		if len(s.entries) == cap(s.entries) {
			// Grow by an eighth, never past the limit: the slack stays
			// small beside the payload, so payloadBytes tracks the heap.
			n := min(limit, cap(s.entries)+max(8, cap(s.entries)/8))
			s.entries = append(make([]cacheEntry, 0, n), s.entries...)
		}
		i = int32(len(s.entries))
		s.entries = s.entries[:i+1]
	} else {
		i = s.evict()
		bytesDelta -= entryBytes(s.entries[i].out)
		evicted = true
	}
	s.entries[i] = cacheEntry{hash: h, key: *k, out: out}
	if 2*len(s.entries) > len(s.slots) {
		// Past half full: double the table and file every entry again,
		// the one just written among them.
		s.rehash(max(minCacheSlots, 2*len(s.slots)))
	} else {
		s.place(h, i)
	}
	return bytesDelta, evicted
}

// place files entry i, pre-hash h, in the first empty slot from its home.
func (s *cacheShard) place(h uint64, i int32) {
	mask := uint64(len(s.slots) - 1)
	pos := h >> 32 & mask
	for s.slots[pos] != 0 {
		pos = (pos + 1) & mask
	}
	s.slots[pos] = h>>32<<32 | uint64(i+1)
}

// rehash replaces the slot table by one of n slots holding every entry.
func (s *cacheShard) rehash(n int) {
	s.slots = make([]uint64, n)
	for i := range s.entries {
		s.place(s.entries[i].hash, int32(i))
	}
}

// evict advances the clock to the first entry not hit since the hand
// last passed it, clearing the bits it steps over, removes that entry's
// slot and returns its index. Two laps at most: the first clears every
// bit.
func (s *cacheShard) evict() int32 {
	for {
		i := int32(s.hand)
		if s.hand++; s.hand == len(s.entries) {
			s.hand = 0
		}
		e := &s.entries[i]
		if e.ref {
			e.ref = false
			continue
		}
		mask := uint64(len(s.slots) - 1)
		pos := e.hash >> 32 & mask
		for uint32(s.slots[pos]) != uint32(i+1) {
			pos = (pos + 1) & mask
		}
		s.unlink(pos)
		return i
	}
}

// unlink empties slot pos by backward shift: each later word of its
// cluster that may sit at the gap (its home lies cyclically at or before
// the gap) moves back into it, and the gap moves to where that word was,
// until an empty slot ends the cluster. A word is never left behind a
// gap on its own probe sequence.
func (s *cacheShard) unlink(pos uint64) {
	mask := uint64(len(s.slots) - 1)
	for j := (pos + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if home := s.slots[j] >> 32 & mask; (j-home)&mask >= (j-pos)&mask {
			s.slots[pos] = s.slots[j]
			pos = j
		}
	}
	s.slots[pos] = 0
}

// GetBatch implements driver.ResultCache's lookup: outs[i], hit[i]
// answer keys[i], the return value counts the hits. Keys are hashed once
// into pooled scratch and looked up by lookupBatch.
func (c *resultCache) GetBatch(keys []driver.CacheKey, outs []ipukernel.AlignOut, hit []bool) int {
	sc := batchScratch.Get().(*lookupScratch)
	defer batchScratch.Put(sc)
	sc.hashes = slices.Grow(sc.hashes[:0], len(keys))[:len(keys)]
	for i := range keys {
		sc.hashes[i] = hashKey(&keys[i])
	}
	return c.lookupBatch(keys, sc, outs, hit)
}

// lookupBatch answers keys under the pre-hashes in sc.hashes: the keys
// are bucketed by shard in sc.order, each shard is locked once for all
// of its keys (its Puts wait that long: ≈ 0.2 µs a key), and the
// counters are added once.
func (c *resultCache) lookupBatch(keys []driver.CacheKey, sc *lookupScratch, outs []ipukernel.AlignOut, hit []bool) int {
	hashes := sc.hashes
	order := slices.Grow(sc.order[:0], len(keys))[:len(keys)]
	sc.order = order
	var start [cacheShards + 1]int32
	for _, h := range hashes {
		start[shardOf(h)+1]++
	}
	for si := 0; si < cacheShards; si++ {
		start[si+1] += start[si]
	}
	next := start
	for i, h := range hashes {
		si := shardOf(h)
		order[next[si]] = int32(i)
		next[si]++
	}
	hits := 0
	for si := range c.shards {
		bucket := order[start[si]:start[si+1]]
		if len(bucket) == 0 {
			continue
		}
		s := &c.shards[si]
		s.mu.Lock()
		for _, i := range bucket {
			if hit[i] = s.lookup(hashes[i], &keys[i], &outs[i]); hit[i] {
				hits++
			}
		}
		s.mu.Unlock()
	}
	c.hits.Add(int64(hits))
	c.misses.Add(int64(len(keys) - hits))
	return hits
}

// lookupScratch is GetBatch's per-call working set: each key's hash, and
// the key indices bucketed by shard.
type lookupScratch struct {
	hashes []uint64
	order  []int32
}

// batchScratch recycles GetBatch's scratch across lookups.
var batchScratch = sync.Pool{New: func() any { return new(lookupScratch) }}

// Put implements driver.ResultCache.
func (c *resultCache) Put(k driver.CacheKey, out ipukernel.AlignOut) {
	c.putHashed(hashKey(&k), &k, out)
}

// putHashed is Put under the pre-hash h.
func (c *resultCache) putHashed(h uint64, k *driver.CacheKey, out ipukernel.AlignOut) {
	s := &c.shards[shardOf(h)]
	s.mu.Lock()
	bytesDelta, evicted := s.put(h, k, out, c.perShard)
	s.mu.Unlock()
	c.payloadBytes.Add(bytesDelta)
	if evicted {
		c.evictions.Add(1)
	}
}
