package engine

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// cacheAudit walks every shard and checks what must hold between any two
// operations: entries within the bound, every resident entry found under
// its own key, the index no larger than the entries, and the counters
// equal to what the walk sums — payloadBytes is only ever adjusted by
// deltas, so this is the one place the sum is taken.
func cacheAudit(t *testing.T, c *resultCache, inserts int64) {
	t.Helper()
	var resident, bytes int64
	for si := range c.shards {
		s := &c.shards[si]
		if len(s.entries) > c.perShard {
			t.Fatalf("shard %d holds %d entries, limit %d", si, len(s.entries), c.perShard)
		}
		if len(s.index) > len(s.entries) {
			t.Fatalf("shard %d: %d index slots over %d entries", si, len(s.index), len(s.entries))
		}
		for i := range s.entries {
			e := &s.entries[i]
			if shardOf(e.hash) != si || e.hash != hashKey(&e.key) {
				t.Fatalf("shard %d slot %d filed under the wrong hash", si, i)
			}
			if got := s.find(e.hash, &e.key); got != int32(i) {
				t.Fatalf("shard %d slot %d: find returns slot %d", si, i, got)
			}
			bytes += entryBytes(e.out)
		}
		resident += int64(len(s.entries))
	}
	if got := c.resident(); got != resident {
		t.Fatalf("resident() = %d, walk counts %d", got, resident)
	}
	if got := c.payloadBytes.Load(); got != bytes {
		t.Fatalf("payloadBytes = %d, Σ entryBytes over resident entries = %d", got, bytes)
	}
	if got := c.evictions.Load(); got != inserts-resident {
		t.Fatalf("evictions = %d, inserts %d − resident %d = %d", got, inserts, resident, inserts-resident)
	}
}

// TestResultCacheModel drives random Puts and lookups (single and
// batched) against a reference map over several cache sizes — 12 000
// operations in all, key space 2–4× capacity so eviction is constant —
// and audits the structure as it goes: a hit never returns another key's
// value (or a stale one), the bound and the counters hold, and an entry
// hit since the hand last passed survives the next eviction in its shard.
func TestResultCacheModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for round := 0; round < 6; round++ {
		capacity := cacheShards * (4 + rng.Intn(61)) // 64 … 1 024
		keySpace := capacity * (2 + rng.Intn(3))
		c := newResultCache(capacity)
		model := make(map[driver.CacheKey]ipukernel.AlignOut)
		var inserts, lookups, hits int64

		isResident := func(k driver.CacheKey) bool {
			h := hashKey(&k)
			return c.shards[shardOf(h)].find(h, &k) >= 0
		}
		put := func(k driver.CacheKey) {
			out := ipukernel.AlignOut{Score: rng.Int(), Cigar: alignment.Cigar(strings.Repeat("=", rng.Intn(40)))}
			if !isResident(k) {
				inserts++
			}
			c.Put(k, out)
			model[k] = out
		}
		check := func(k driver.CacheKey, out ipukernel.AlignOut, ok bool) {
			t.Helper()
			lookups++
			if !ok {
				return
			}
			hits++
			if want, known := model[k]; !known || out != want {
				t.Fatalf("hit on %+v returned %+v, last stored %+v (known %v)", k, out, want, known)
			}
		}

		for op := 0; op < 2000; op++ {
			switch k := testKey(rng.Intn(keySpace)); rng.Intn(4) {
			case 0, 1:
				put(k)
			case 2:
				out, ok := get(c, k)
				check(k, out, ok)
				if !ok {
					break
				}
				// k was just hit. Unless every entry of its shard has been
				// hit too (the clock then degenerates to FIFO), the next
				// eviction there must take something else.
				h := hashKey(&k)
				s := &c.shards[shardOf(h)]
				unhit := false
				for i := range s.entries {
					unhit = unhit || !s.entries[i].ref
				}
				if len(s.entries) < c.perShard || !unhit {
					break
				}
				fresh := testKey(1<<20 + op)
				for id := 1<<20 + op; shardOf(hashKey(&fresh)) != shardOf(h); id += 1 << 12 {
					fresh = testKey(id)
				}
				before := c.evictions.Load()
				put(fresh)
				if c.evictions.Load() != before+1 {
					t.Fatalf("put into a full shard evicted %d entries", c.evictions.Load()-before)
				}
				if !isResident(k) {
					t.Fatalf("entry hit since the hand passed was the next eviction's victim")
				}
			case 3:
				keys := make([]driver.CacheKey, 1+rng.Intn(64))
				for i := range keys {
					keys[i] = testKey(rng.Intn(keySpace))
				}
				outs := make([]ipukernel.AlignOut, len(keys))
				hit := make([]bool, len(keys))
				n := c.GetBatch(keys, outs, hit)
				for i, k := range keys {
					check(k, outs[i], hit[i])
					if hit[i] {
						n--
					}
				}
				if n != 0 {
					t.Fatalf("GetBatch counted %d hits more than it flagged", n)
				}
			}
			if op%97 == 0 {
				cacheAudit(t, c, inserts)
			}
		}
		cacheAudit(t, c, inserts)
		if got := c.hits.Load() + c.misses.Load(); got != lookups || c.hits.Load() != hits {
			t.Fatalf("hits %d + misses %d, want %d lookups of which %d hit", c.hits.Load(), c.misses.Load(), lookups, hits)
		}
		if c.evictions.Load() == 0 {
			t.Fatalf("capacity %d, key space %d: nothing was ever evicted", capacity, keySpace)
		}
	}
}

// TestResultCacheWorkingSetBelowCapacityNeverEvicts is the warm
// benchmark's case — 15.2 k extensions in a cache of 2^18: whatever the
// eviction policy, it must never run, and every resubmission must hit.
func TestResultCacheWorkingSetBelowCapacityNeverEvicts(t *testing.T) {
	const n = 15200
	c := newResultCache(1 << 18)
	keys := make([]driver.CacheKey, n)
	for pass := 0; pass < 2; pass++ {
		for i := range keys {
			keys[i] = testKey(i)
			c.Put(keys[i], ipukernel.AlignOut{Score: i})
		}
	}
	outs, hit := make([]ipukernel.AlignOut, n), make([]bool, n)
	if hits := c.GetBatch(keys, outs, hit); hits != n {
		t.Fatalf("%d of %d resident keys hit", hits, n)
	}
	for i := range outs {
		if outs[i].Score != i {
			t.Fatalf("key %d served score %d", i, outs[i].Score)
		}
	}
	cacheAudit(t, c, n)
	if ev := c.evictions.Load(); ev != 0 {
		t.Fatalf("%d evictions with the working set at 6 %% of capacity", ev)
	}
}

// TestResultCacheBatchedLookupUnderPuts: batched lookups race Puts from
// four goroutines (run it under -race). Every hit must carry its own
// key's value, and the engine's counters must account for exactly the
// lookups issued — the batch adds them once per call, not once per key.
func TestResultCacheBatchedLookupUnderPuts(t *testing.T) {
	const (
		putters   = 4
		lookers   = 2
		keySpace  = 4096
		batches   = 60
		batchKeys = 257
	)
	e := New(WithResultCache(1024)) // a quarter of the key space: constant eviction
	defer e.Close()
	c := e.cache

	stop := make(chan struct{})
	var wgPut, wgLook sync.WaitGroup
	for p := 0; p < putters; p++ {
		wgPut.Add(1)
		go func(seed int64) {
			defer wgPut.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(keySpace)
				c.Put(testKey(id), ipukernel.AlignOut{Score: id})
			}
		}(int64(p))
	}
	var issued atomic.Int64
	for l := 0; l < lookers; l++ {
		wgLook.Add(1)
		go func(seed int64) {
			defer wgLook.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]driver.CacheKey, batchKeys)
			ids := make([]int, batchKeys)
			outs := make([]ipukernel.AlignOut, batchKeys)
			hit := make([]bool, batchKeys)
			for b := 0; b < batches; b++ {
				for i := range keys {
					ids[i] = rng.Intn(keySpace)
					keys[i] = testKey(ids[i])
				}
				hits := c.GetBatch(keys, outs, hit) // hit is overwritten whole
				for i := range keys {
					if hit[i] {
						hits--
						if outs[i].Score != ids[i] {
							t.Errorf("key %d served score %d", ids[i], outs[i].Score)
						}
					}
				}
				if hits != 0 {
					t.Errorf("GetBatch returned %d hits more than it flagged", hits)
				}
				get(c, testKey(ids[0])) // a single lookup per batch, counted like the rest
				issued.Add(batchKeys + 1)
				runtime.Gosched()
			}
		}(int64(100 + l))
	}
	wgLook.Wait()
	close(stop)
	wgPut.Wait()

	st := e.Stats()
	if got, want := st.CacheHits+st.CacheMisses, issued.Load(); got != want || want != lookers*batches*(batchKeys+1) {
		t.Fatalf("CacheHits %d + CacheMisses %d = %d, lookups issued %d", st.CacheHits, st.CacheMisses, got, want)
	}
	if st.CacheEntries > 1024 || st.CacheEntries == 0 {
		t.Fatalf("CacheEntries = %d, bound 1024", st.CacheEntries)
	}
	if st.CacheEvictions == 0 {
		t.Fatal("no evictions with the key space at 4× capacity")
	}
	if st.CacheBytes != st.CacheEntries*cacheEntryFixedBytes {
		t.Fatalf("CacheBytes = %d for %d CIGAR-less entries of %d bytes", st.CacheBytes, st.CacheEntries, cacheEntryFixedBytes)
	}
}

// TestCacheBytesTracksHeap: Stats.CacheBytes (the cache's payloadBytes)
// against what the shards really hold — the heap's growth from no cache
// to a filled one: entries, index tables and CIGAR bytes together — at
// 1 k and 100 k entries. cacheEntryFixedBytes is the entry's size plus an
// estimate of its index share; this is the check on that estimate and on
// the growth slack put allows itself.
func TestCacheBytesTracksHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, n := range []int{1000, 100000} {
		// Score-only entries, then entries with a CIGAR each — 48 bytes, a
		// size the allocator does not round, so the comparison is with the
		// cache's bookkeeping and not with malloc's.
		for _, cigar := range []string{"", strings.Repeat("100=1X2I", 6)} {
			before := heap()
			c := newResultCache(2 * n)
			for i := 0; i < n; i++ {
				c.Put(testKey(i), ipukernel.AlignOut{Score: i, Cigar: alignment.Cigar(strings.Clone(cigar))})
			}
			grown := heap() - before
			reported := c.payloadBytes.Load()
			if got := c.resident(); got != int64(n) {
				t.Fatalf("%d entries resident after %d distinct Puts into %d slots", got, n, 2*n)
			}
			d := float64(reported-grown) / float64(grown)
			t.Logf("%d entries, %d-byte CIGARs: CacheBytes %d, heap grew %d (%+.1f %%)", n, len(cigar), reported, grown, 100*d)
			if d < -0.10 || d > 0.10 {
				t.Errorf("%d entries: CacheBytes %d is not within 10 %% of the heap's %d", n, reported, grown)
			}
		}
	}
}

// BenchmarkResultCacheLookup is a warm plan's lookups without the service
// around them: 16 k resident entries, 3 800 keys an iteration in
// submission order, reported as ns/lookup — Batched through GetBatch, as
// BuildBatches asks an engine's cache. It says where to look; the verdict
// on a change is benchmark/'s service_replay_warm.
func BenchmarkResultCacheLookup(b *testing.B) {
	const resident, plan = 16 << 10, 3800
	c := newResultCache(1 << 18)
	for i := 0; i < resident; i++ {
		c.Put(testKey(i), ipukernel.AlignOut{Score: i})
	}
	// Four plans' worth of keys, walked in turn, so an iteration does not
	// find the previous one's lines still in L1.
	plans := make([][]driver.CacheKey, 4)
	for p := range plans {
		plans[p] = make([]driver.CacheKey, plan)
		for i := range plans[p] {
			plans[p][i] = testKey((p*plan + i) % resident)
		}
	}
	outs, hit := make([]ipukernel.AlignOut, plan), make([]bool, plan)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plan), "ns/lookup")
	}
	b.Run("Batched", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if hits := c.GetBatch(plans[n%len(plans)], outs, hit); hits != plan {
				b.Fatalf("%d of %d resident keys hit", hits, plan)
			}
		}
		report(b)
	})
}

// get is a one-key GetBatch.
func get(c *resultCache, k driver.CacheKey) (ipukernel.AlignOut, bool) {
	var out [1]ipukernel.AlignOut
	var hit [1]bool
	c.GetBatch([]driver.CacheKey{k}, out[:], hit[:])
	return out[0], hit[0]
}
