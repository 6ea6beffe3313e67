package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// cacheAudit walks every shard and checks what must hold between any two
// operations: entries within the bound, each filed under hashOf of its
// key in the shard that pre-hash picks, the slot table sound
// (shardAudit), and the counters equal to what the walk sums —
// payloadBytes is only ever adjusted by deltas, so this is the one place
// the sum is taken.
func cacheAudit(t *testing.T, c *resultCache, inserts int64, hashOf func(*driver.CacheKey) uint64) {
	t.Helper()
	var resident, bytes int64
	for si := range c.shards {
		s := &c.shards[si]
		if len(s.entries) > c.perShard {
			t.Fatalf("shard %d holds %d entries, limit %d", si, len(s.entries), c.perShard)
		}
		for i := range s.entries {
			e := &s.entries[i]
			if shardOf(e.hash) != si || e.hash != hashOf(&e.key) {
				t.Fatalf("shard %d entry %d filed under the wrong hash", si, i)
			}
			bytes += entryBytes(e.out)
		}
		shardAudit(t, s)
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

// shardAudit checks a shard's slot table against its entries: a
// power-of-two table at most half full, exactly one occupied slot per
// entry, each word carrying its entry's tag, and every entry found along
// its own probe sequence (find stops at the first empty slot, so a word
// stranded behind a gap is not found).
func shardAudit(t *testing.T, s *cacheShard) {
	t.Helper()
	if n := len(s.slots); n&(n-1) != 0 || 2*len(s.entries) > n {
		t.Fatalf("%d slots for %d entries: want a power of two at most half full", n, len(s.entries))
	}
	occupied := 0
	for pos, w := range s.slots {
		if w == 0 {
			continue
		}
		occupied++
		if i := int(uint32(w)) - 1; i < 0 || i >= len(s.entries) || w>>32 != s.entries[i].hash>>32 {
			t.Fatalf("slot %d holds word %#x: no entry of %d carries it", pos, w, len(s.entries))
		}
	}
	if occupied != len(s.entries) {
		t.Fatalf("%d occupied slots for %d entries", occupied, len(s.entries))
	}
	for i := range s.entries {
		e := &s.entries[i]
		if got := s.find(e.hash, &e.key); got != int32(i) {
			t.Fatalf("entry %d: find returns %d", i, got)
		}
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
				cacheAudit(t, c, inserts, hashKey)
			}
		}
		cacheAudit(t, c, inserts, hashKey)
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
	cacheAudit(t, c, n, hashKey)
	if ev := c.evictions.Load(); ev != 0 {
		t.Fatalf("%d evictions with the working set at 6 %% of capacity", ev)
	}
}

// FuzzResultCache runs random Put and batched and single lookup
// sequences (putHashed, lookupBatch: Put and GetBatch under a given
// pre-hash) over a small key space against a map model, auditing the
// cache after every step. Pre-hashes are forced, not hashKey's (unless
// shape's top bits pick it): keys fall in one or two shards, many share a whole
// pre-hash, more share a tag while differing below it, and tags that
// differ still share home slots, so probes cross long clusters of
// colliding words and full shards evict out of their middle. A hit must
// carry the last value stored under its own key.
func FuzzResultCache(f *testing.F) {
	// shape's bytes, low first: entries per shard, key space, then tag,
	// home and pre-hash moduli in nibbles; bit 28 spreads the keys over
	// two shards, and the top three bits set pick hashKey instead.
	for i, shape := range []uint32{0x11151203, 0x03021c07, 0x02000a01, 0x12232e0b, 0xe0002602} {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(int64(i))).Read(ops)
		f.Add(shape, ops)
	}
	f.Add(uint32(0x01040308), []byte("the quick brown fox jumps over the lazy dog, then puts it all back"))
	f.Fuzz(func(t *testing.T, shape uint32, ops []byte) {
		limit := 1 + int(shape&0xff)%12        // entries per shard
		keySpace := 2 + int(shape>>8&0xff)%48  // distinct keys
		tagMod := 1 + uint64(shape>>16&0xf)%6  // distinct tags
		homeMod := 1 + uint64(shape>>20&0xf)%4 // distinct homes among them
		lowMod := 1 + uint64(shape>>24&0xf)%4  // pre-hashes under one tag
		twoShards, real := shape>>28&1 == 1, shape>>29 == 7
		c := newResultCache(cacheShards * limit)
		ids := make(map[driver.CacheKey]int, keySpace)
		hashes := make([]uint64, keySpace)
		for id := range hashes {
			k := testKey(id)
			ids[k] = id
			if real {
				hashes[id] = hashKey(&k)
				continue
			}
			tag := uint64(id)%tagMod<<12 | uint64(id)%tagMod%homeMod
			if twoShards {
				tag |= uint64(id%2) << 28
			}
			hashes[id] = tag<<32 | uint64(id)%lowMod
		}
		hashOf := func(k *driver.CacheKey) uint64 { return hashes[ids[*k]] }
		model := make(map[driver.CacheKey]ipukernel.AlignOut)
		var inserts int64
		check := func(k driver.CacheKey, out ipukernel.AlignOut, ok bool) {
			t.Helper()
			if !ok {
				return
			}
			if want, known := model[k]; !known || out != want {
				t.Fatalf("hit on key %d returned %+v, last stored %+v (known %v)", ids[k], out, want, known)
			}
		}
		for n := 0; n+1 < len(ops); n += 2 {
			k := testKey(int(ops[n+1]) % keySpace)
			h := hashOf(&k)
			switch ops[n] % 4 {
			case 0, 1:
				out := ipukernel.AlignOut{Score: n, Cigar: alignment.Cigar(strings.Repeat("=", int(ops[n])%5))}
				if c.shards[shardOf(h)].find(h, &k) < 0 {
					inserts++
				}
				c.putHashed(h, &k, out)
				model[k] = out
			case 2:
				sc := &lookupScratch{hashes: []uint64{h}}
				var outs [1]ipukernel.AlignOut
				var hit [1]bool
				c.lookupBatch([]driver.CacheKey{k}, sc, outs[:], hit[:])
				check(k, outs[0], hit[0])
			case 3:
				// A batch of the next few ops' keys.
				m := min(1+int(ops[n+1])%8, len(ops)-n-1)
				keys := make([]driver.CacheKey, m)
				sc := &lookupScratch{hashes: make([]uint64, m)}
				for i := range keys {
					keys[i] = testKey(int(ops[n+1+i]) % keySpace)
					sc.hashes[i] = hashOf(&keys[i])
				}
				outs, hit := make([]ipukernel.AlignOut, m), make([]bool, m)
				hits := c.lookupBatch(keys, sc, outs, hit)
				for i, k := range keys {
					check(k, outs[i], hit[i])
					if hit[i] {
						hits--
					}
				}
				if hits != 0 {
					t.Fatalf("lookupBatch counted %d hits more than it flagged", hits)
				}
			}
			cacheAudit(t, c, inserts, hashOf)
		}
	})
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
// to a filled one: entries, slot tables and CIGAR bytes together — at
// 1 k and 100 k entries. cacheEntryFixedBytes is the entry's size plus an
// estimate of its slots' share; this is the check on that estimate and on
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

// BenchmarkWarmPlan is a warm job's plan up to its first update, without
// the service around it: BuildBatches (dedup, keys, the batched lookup),
// CachedResults and ResultExpander, over the four datasets of the repo
// benchmark's service_replay_warm against a cache they have all been run
// into. Reported as ns/cmp beside B/op. It says where to look; the
// verdict on a change is benchmark/'s service_replay_warm.
//
// The datasets and the config are a copy of benchmark/workloads.go, and
// nothing checks that they still agree: noisyLongReads(36_000, 3_800)
// under defaultSeed+i, driverConfig at that spec's X and δb, and
// engineOptions' cache size. A change there must be copied here, or this
// measures another workload.
func BenchmarkWarmPlan(b *testing.B) {
	const scale = 8
	cfg := driver.Config{
		IPUs:      1,
		Model:     platform.GC200.Scaled(scale),
		Partition: true,
		Kernel: ipukernel.Config{
			Params:  core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit: true, WorkStealing: true, BusyWaitVariance: true, DualIssue: true,
		},
		BatchOverheadSeconds: driver.DefaultBatchOverheadSeconds / scale,
		MaxBatchJobs:         64,
		Cache:                newResultCache(1 << 18),
	}
	data := make([]*workload.Dataset, 4)
	cmps := 0
	for i := range data {
		const mean = 900
		data[i] = synth.Reads(synth.ReadsSpec{
			Name: fmt.Sprintf("service_replay_warm-%d", i), Seed: 20230417 + int64(i),
			GenomeLen: 36_000, Coverage: 12,
			MeanReadLen: mean, MinReadLen: mean / 3, MaxReadLen: mean * 5 / 2,
			Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
			SeedLen: 17, MinOverlap: mean / 4, MaxComparisons: 3_800,
		})
		if _, err := driver.Run(data[i], cfg); err != nil {
			b.Fatal(err)
		}
		cmps += len(data[i].Comparisons)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := range b.N {
		d := data[n%len(data)]
		bp, err := driver.BuildBatches(ctx, d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cached := bp.CachedResults(); len(cached) != len(d.Comparisons) || bp.Batches() != 0 {
			b.Fatalf("%d of %d comparisons cache-served, %d batches", len(cached), len(d.Comparisons), bp.Batches())
		}
		if bp.ResultExpander() == nil {
			b.Fatal("a plan built against a cache has no expander")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(len(data))/float64(b.N*cmps), "ns/cmp")
}

// get is a one-key GetBatch.
func get(c *resultCache, k driver.CacheKey) (ipukernel.AlignOut, bool) {
	var out [1]ipukernel.AlignOut
	var hit [1]bool
	c.GetBatch([]driver.CacheKey{k}, out[:], hit[:])
	return out[0], hit[0]
}
