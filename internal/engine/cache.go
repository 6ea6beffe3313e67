// The cross-job result cache: a bounded, sharded, recency-approximating
// cache over finished extensions, shared by every submission an engine
// serves. Keys are the driver's CacheKey — the extension's
// content-addressed identity (sequence digests, lengths, seed geometry)
// plus a fingerprint of the kernel configuration — so two clients
// submitting byte-identical work under the same scoring regime hit each
// other's results regardless of pool numbering, the way LOGAN-class batch
// aligners avoid ever re-extending identical seed pairs.
//
// A shard is one flat slice of entries indexed by a 64-bit pre-hash of
// the whole key. A hit reads one entry and sets one bit in it
// (second-chance eviction); a plan's lookups arrive as one batch, so each
// shard is locked once per plan and independent lookups overlap their
// cache misses instead of queueing behind a lock round-trip each.

package engine

import (
	"math/bits"
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
// in the one slot it has to read anyway.
type cacheEntry struct {
	hash uint64 // the pre-hash the entry is indexed under
	next int32  // next entry under the same pre-hash, -1 at the chain's end
	ref  bool   // hit since the clock hand last passed
	key  driver.CacheKey
	out  ipukernel.AlignOut
}

// cacheShard holds its entries in one slice that grows to the shard's
// limit and is then reused slot by slot. index maps a pre-hash to the
// head of its chain; distinct keys that mix to one pre-hash chain through
// next, and find confirms a match on the full key, so a pre-hash
// collision can never alias two extensions.
type cacheShard struct {
	mu      sync.Mutex
	index   map[uint64]int32
	entries []cacheEntry
	hand    int // next slot the eviction clock examines
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
// beside the entries: the index slot (a 16-byte key/value pair and a
// control byte, in tables that run between 7/16 and 7/8 full: 19–39
// bytes) and the entry slice's growth slack (at most an eighth).
// TestCacheBytesTracksHeap holds the sum to the heap within 10 %.
const cacheEntryOverheadBytes = 44

// cacheEntryFixedBytes is what an entry occupies outside its CIGAR.
const cacheEntryFixedBytes = int64(unsafe.Sizeof(cacheEntry{})) + cacheEntryOverheadBytes

func entryBytes(out ipukernel.AlignOut) int64 {
	return cacheEntryFixedBytes + int64(len(out.Cigar))
}

func newResultCache(entries int) *resultCache {
	if entries <= 0 {
		entries = DefaultResultCacheEntries
	}
	c := &resultCache{perShard: (entries + cacheShards - 1) / cacheShards}
	for i := range c.shards {
		c.shards[i].index = make(map[uint64]int32)
	}
	return c
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

// find returns the slot holding k, or -1. h only selects the chain; the
// match is the full key.
func (s *cacheShard) find(h uint64, k *driver.CacheKey) int32 {
	i, ok := s.index[h]
	if !ok {
		return -1
	}
	for ; i >= 0; i = s.entries[i].next {
		if s.entries[i].key == *k {
			return i
		}
	}
	return -1
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
	var slot int32
	if len(s.entries) < limit {
		if len(s.entries) == cap(s.entries) {
			// Grow by an eighth, never past the limit: the slack stays
			// small beside the payload, so payloadBytes tracks the heap.
			n := min(limit, cap(s.entries)+max(8, cap(s.entries)/8))
			s.entries = append(make([]cacheEntry, 0, n), s.entries...)
		}
		slot = int32(len(s.entries))
		s.entries = s.entries[:slot+1]
	} else {
		slot = s.evict()
		bytesDelta -= entryBytes(s.entries[slot].out)
		evicted = true
	}
	// The victim is unlinked by now, so the chain head read here is
	// current even when victim and newcomer share a pre-hash.
	head, chained := s.index[h]
	if !chained {
		head = -1
	}
	s.entries[slot] = cacheEntry{hash: h, next: head, key: *k, out: out}
	s.index[h] = slot
	return bytesDelta, evicted
}

// evict advances the clock to the first entry not hit since the hand
// last passed it, clearing the bits it steps over, unlinks that entry
// from its chain and returns its slot. Two laps at most: the first clears
// every bit.
func (s *cacheShard) evict() int32 {
	for {
		slot := int32(s.hand)
		if s.hand++; s.hand == len(s.entries) {
			s.hand = 0
		}
		e := &s.entries[slot]
		if e.ref {
			e.ref = false
			continue
		}
		if head := s.index[e.hash]; head != slot {
			for s.entries[head].next != slot {
				head = s.entries[head].next
			}
			s.entries[head].next = e.next
		} else if e.next >= 0 {
			s.index[e.hash] = e.next
		} else {
			delete(s.index, e.hash)
		}
		return slot
	}
}

// GetBatch implements the driver's batched lookup: outs[i], hit[i]
// answer keys[i], the return value counts the hits. Keys are hashed once
// and bucketed by shard, each shard is locked once for all of its keys
// (its Puts wait that long: ≈ 0.2 µs a key), and the counters are added
// once.
func (c *resultCache) GetBatch(keys []driver.CacheKey, outs []ipukernel.AlignOut, hit []bool) int {
	hashes := make([]uint64, len(keys))
	var start [cacheShards + 1]int32
	for i := range keys {
		h := hashKey(&keys[i])
		hashes[i] = h
		start[shardOf(h)+1]++
	}
	for si := 0; si < cacheShards; si++ {
		start[si+1] += start[si]
	}
	order := make([]int32, len(keys))
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

// Get implements driver.ResultCache: GetBatch for one key.
func (c *resultCache) Get(k driver.CacheKey) (ipukernel.AlignOut, bool) {
	h := hashKey(&k)
	s := &c.shards[shardOf(h)]
	var out ipukernel.AlignOut
	s.mu.Lock()
	ok := s.lookup(h, &k, &out)
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return out, ok
}

// Put implements driver.ResultCache.
func (c *resultCache) Put(k driver.CacheKey, out ipukernel.AlignOut) {
	h := hashKey(&k)
	s := &c.shards[shardOf(h)]
	s.mu.Lock()
	bytesDelta, evicted := s.put(h, &k, out, c.perShard)
	s.mu.Unlock()
	c.payloadBytes.Add(bytesDelta)
	if evicted {
		c.evictions.Add(1)
	}
}
