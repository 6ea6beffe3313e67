package engine

import (
	"math/bits"
	"reflect"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func cacheTestConfig() driver.Config {
	return driver.Config{IPUs: 1, Partition: true, Kernel: ipukernel.Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: 128}}}
}

// clone re-packs d's pool into a fresh arena under its own plan: the same
// bytes and indices, no shared storage.
func clone(t testing.TB, d *workload.Dataset) *workload.Dataset {
	t.Helper()
	seqs := make([][]byte, d.NumSeqs())
	for i := range seqs {
		seqs[i] = d.Seq(i)
	}
	c, err := workload.Pack(d.Name, seqs, d.Comparisons, d.Protein)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cacheTestDataset(seed int64) *workload.Dataset {
	return synth.UniformPairs(synth.UniformPairsSpec{
		Count: 10, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: seed})
}

// TestEngineResultCacheCrossJob: the second submission of byte-identical
// work — a different Dataset object with its own pool numbering — must be
// served from the cache without executing a single batch, with results
// bit-identical to an uncached engine.
func TestEngineResultCacheCrossJob(t *testing.T) {
	d1 := cacheTestDataset(11)
	d2 := clone(t, d1) // same bytes, fresh arena

	want, err := driver.Run(clone(t, d1), cacheTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()

	j1 := submit(t, eng, d1)
	rep1 := wait(t, j1)
	st1 := eng.Stats()
	if st1.CacheHits != 0 || st1.CacheMisses == 0 {
		t.Fatalf("cold job: hits %d misses %d", st1.CacheHits, st1.CacheMisses)
	}

	j2 := submit(t, eng, d2)
	rep2 := wait(t, j2)
	st2 := eng.Stats()

	for i := range want.Results {
		if rep1.Results[i] != want.Results[i] {
			t.Fatalf("cached engine result %d differs from driver.Run: %+v vs %+v", i, rep1.Results[i], want.Results[i])
		}
		if rep2.Results[i] != want.Results[i] {
			t.Fatalf("cache-served result %d differs from driver.Run: %+v vs %+v", i, rep2.Results[i], want.Results[i])
		}
	}
	if rep2.Batches != 0 {
		t.Errorf("warm job executed %d batches, want 0", rep2.Batches)
	}
	if hits := st2.CacheHits - st1.CacheHits; hits != int64(rep2.UniqueExtensions) {
		t.Errorf("warm job scored %d hits, want %d", hits, rep2.UniqueExtensions)
	}
	if st2.BatchesDone != st1.BatchesDone {
		t.Errorf("warm job grew BatchesDone: %d -> %d", st1.BatchesDone, st2.BatchesDone)
	}
}

// TestResultCacheKeepsCollidingSequencesApart: x is the 4 096-symbol
// Thue–Morse word over {A, C} and y its complement, a pair that collides
// unkeyed FNV-1a and odd-base polynomial hashes at this length. A
// cached engine that has run x against x must not serve that alignment
// for y against x: the cache key names sequences by digest, so the digest
// is all that tells the two jobs apart.
func TestResultCacheKeepsCollidingSequencesApart(t *testing.T) {
	const n = 4096
	x, y := make([]byte, n), make([]byte, n)
	for i := range x {
		x[i], y[i] = 'A', 'C'
		if bits.OnesCount(uint(i))%2 == 1 {
			x[i], y[i] = 'C', 'A'
		}
	}
	cmps := []workload.Comparison{{H: 0, V: 1, SeedH: 2000, SeedV: 2000, SeedLen: 17}}
	xx := workload.MustPack("xx", [][]byte{x, x}, cmps, false)
	yx := workload.MustPack("yx", [][]byte{y, x}, cmps, false)

	want, err := driver.Run(clone(t, yx), cacheTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()
	var reps []*driver.Report
	for _, d := range []*workload.Dataset{xx, yx} {
		j := submit(t, eng, d)
		rep := wait(t, j)
		reps = append(reps, rep)
	}
	if reps[0].Results[0].Score == want.Results[0].Score {
		t.Fatalf("x·x and y·x both score %d: the pair no longer tells the cache anything", want.Results[0].Score)
	}
	if got := reps[1]; got.CacheHits != 0 || got.Results[0] != want.Results[0] {
		t.Fatalf("y·x after x·x: %d cache hits, result %+v; want 0 hits and %+v",
			got.CacheHits, got.Results[0], want.Results[0])
	}
}

func testKey(i int) driver.CacheKey {
	return driver.CacheKey{Kernel: 1, Ext: workload.ExtensionKey{
		H:    workload.SeqDigest{Lo: uint64(i) * 7919, Hi: uint64(i) * 104729},
		V:    workload.SeqDigest{Lo: uint64(i) * 13, Hi: uint64(i) * 31},
		HLen: 100, VLen: 100, SeedH: 1, SeedV: 2, SeedLen: 17,
	}}
}

func TestResultCacheLRUEviction(t *testing.T) {
	// Capacity 16 → one entry per shard: inserting many keys per shard
	// must evict and count it, and evicted keys must miss.
	c := newResultCache(cacheShards)
	n := 200
	for i := 0; i < n; i++ {
		c.Put(testKey(i), ipukernel.AlignOut{Score: i})
	}
	if ev := c.evictions.Load(); ev == 0 {
		t.Fatal("no evictions counted past capacity")
	}
	live := 0
	for i := 0; i < n; i++ {
		if out, ok := get(c, testKey(i)); ok {
			live++
			if out.Score != i {
				t.Fatalf("key %d returned score %d", i, out.Score)
			}
		}
	}
	if live > cacheShards {
		t.Errorf("%d entries live, capacity %d", live, cacheShards)
	}
	if live == 0 {
		t.Error("everything evicted — LRU keeps nothing?")
	}
}

// TestResultCacheCollisionSafety: keys that differ in one field only —
// a length, one digest half, the kernel fingerprint — must resolve
// independently, and so must two different keys forced onto the same
// 64-bit pre-hash: the pre-hash only places a key and its tag only
// filters the probe, the match is the full key, so no hash collision can
// alias two extensions. The forced case drives a shard by hand with a
// pre-hash of the test's choosing; it fails if find trusts the tag
// (returns the first word that carries it without comparing keys): ka
// would then be served kb's value.
func TestResultCacheCollisionSafety(t *testing.T) {
	c := newResultCache(1 << 10)
	k1 := testKey(1)
	k2 := k1
	k2.Ext.HLen = 101 // same shard hash, different extension
	k3 := k1
	k3.Ext.V.Hi++ // digest differing only in the second hash half
	k4 := k1
	k4.Kernel++ // same extension, different kernel configuration

	c.Put(k1, ipukernel.AlignOut{Score: 10})
	if _, ok := get(c, k2); ok {
		t.Fatal("colliding key served another extension's result")
	}
	if _, ok := get(c, k3); ok {
		t.Fatal("digest half-collision served another extension's result")
	}
	if _, ok := get(c, k4); ok {
		t.Fatal("entry served across kernel configurations")
	}
	c.Put(k2, ipukernel.AlignOut{Score: 20})
	c.Put(k3, ipukernel.AlignOut{Score: 30})
	c.Put(k4, ipukernel.AlignOut{Score: 40})
	for i, want := range map[int]driver.CacheKey{10: k1, 20: k2, 30: k3, 40: k4} {
		out, ok := get(c, want)
		if !ok || out.Score != i {
			t.Errorf("key for score %d: ok=%v out=%+v", i, ok, out)
		}
	}

	// Two different keys under one pre-hash, in a shard of two entries.
	const h, limit = 0x0badf00d_feedface, 2
	s := &cacheShard{}
	ka, kb, kc := testKey(2), testKey(3), testKey(4)
	score := func(k driver.CacheKey) int {
		t.Helper()
		var out ipukernel.AlignOut
		if !s.lookup(h, &k, &out) {
			return -1
		}
		return out.Score
	}
	s.put(h, &ka, ipukernel.AlignOut{Score: 1}, limit)
	if got := score(kb); got != -1 {
		t.Fatalf("same pre-hash, different key: served score %d", got)
	}
	s.put(h, &kb, ipukernel.AlignOut{Score: 2}, limit)
	if len(s.entries) != 2 {
		t.Fatalf("colliding keys: %d entries, want 2", len(s.entries))
	}
	// One word each, both with the one tag, on the one probe sequence.
	shardAudit(t, s)
	if a, b := score(ka), score(kb); a != 1 || b != 2 {
		t.Fatalf("colliding keys served %d and %d, want 1 and 2", a, b)
	}
	// Put over a resident key refreshes in place: no new entry, no eviction.
	if _, evicted := s.put(h, &ka, ipukernel.AlignOut{Score: 11}, limit); evicted || len(s.entries) != 2 {
		t.Fatalf("refresh evicted=%v, %d entries", evicted, len(s.entries))
	}
	if a, b := score(ka), score(kb); a != 11 || b != 2 {
		t.Fatalf("after refresh: %d and %d, want 11 and 2", a, b)
	}
	// A third key under the same pre-hash evicts one of the two (both are
	// marked hit, so the clock clears both and takes the first); the other
	// must stay reachable.
	if _, evicted := s.put(h, &kc, ipukernel.AlignOut{Score: 3}, limit); !evicted {
		t.Fatal("third key in a full shard evicted nothing")
	}
	if a, b, c := score(ka), score(kb), score(kc); a != -1 || b != 2 || c != 3 {
		t.Fatalf("after eviction: %d, %d, %d, want -1, 2, 3", a, b, c)
	}
	shardAudit(t, s)
}

// TestResultCacheEvictFromClusterMiddle: a shard of eight entries whose
// pre-hashes put every word's home within four slots, one cluster of
// eight words (once wrapping past the table's end). Round after round,
// the clock is steered onto one entry in the cluster's middle (every
// other entry is hit first), and a newcomer with a home in the cluster
// takes its place. The victim must miss and every other entry stay
// findable: a removal that only cleared its slot would leave the words
// behind it past a gap on their own probe sequences.
func TestResultCacheEvictFromClusterMiddle(t *testing.T) {
	const limit = 8
	for _, base := range []uint64{3, 14} {
		s := &cacheShard{}
		hashOf := func(id int) uint64 {
			tag := uint64(id)<<8 | (base+uint64(id)%4)&15 // home (base + id%4) mod 16
			return tag<<32 | uint64(id)
		}
		resident := map[int]bool{}
		put := func(id int) {
			t.Helper()
			k := testKey(id)
			s.put(hashOf(id), &k, ipukernel.AlignOut{Score: id}, limit)
			resident[id] = true
		}
		lookup := func(id int) bool {
			t.Helper()
			k := testKey(id)
			var out ipukernel.AlignOut
			ok := s.lookup(hashOf(id), &k, &out)
			if ok && out.Score != id {
				t.Fatalf("key %d served score %d", id, out.Score)
			}
			return ok
		}
		for id := 1; id <= limit; id++ {
			put(id)
		}
		shardAudit(t, s)
		if len(s.slots) != 2*limit {
			t.Fatalf("base %d: %d slots for %d entries", base, len(s.slots), limit)
		}
		next := limit + 1
		for _, victim := range []int32{3, 1, 5, 6, 2, 4, 0, 7, 3, 5} {
			gone := s.entries[victim].key
			for i := range s.entries {
				if int32(i) != victim {
					s.entries[i].ref = true
				}
			}
			s.entries[victim].ref = false
			put(next)
			next++
			if s.entries[victim].key == gone {
				t.Fatalf("base %d: the clock did not take entry %d", base, victim)
			}
			for id := range resident {
				if testKey(id) == gone {
					delete(resident, id)
					if lookup(id) {
						t.Fatalf("base %d: evicted key %d still served", base, id)
					}
				}
			}
			for id := range resident {
				if !lookup(id) {
					t.Fatalf("base %d: after evicting entry %d, key %d is lost", base, victim, id)
				}
			}
			shardAudit(t, s)
		}
	}
}

// TestKernelFingerprint: every parameter that can change anything in an
// AlignOut must change the fingerprint, while knobs that only shape the
// modeled schedule or its time must not — each unit runs exactly once
// whatever the schedule, so thread count, IPU model, LR splitting, work
// stealing, busy-wait variance, dual issue and host parallelism all share
// cache entries.
func TestKernelFingerprint(t *testing.T) {
	base := ipukernel.Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: 128}}
	fp := driver.KernelFingerprint(base)
	for _, tc := range []struct {
		name string
		mut  func(c *ipukernel.Config)
		same bool
	}{
		{"X", func(c *ipukernel.Config) { c.Params.X = 20 }, false},
		{"scorer", func(c *ipukernel.Config) { c.Params.Scorer = scoring.Blosum62 }, false},
		{"δb", func(c *ipukernel.Config) { c.Params.DeltaB = 64 }, false},
		{"traceback", func(c *ipukernel.Config) { c.Traceback = true }, false},
		{"work stealing", func(c *ipukernel.Config) { c.WorkStealing = true }, true},
		{"eventual work stealing", func(c *ipukernel.Config) { c.WorkStealing, c.BusyWaitVariance = true, true }, true},
		{"LR split", func(c *ipukernel.Config) { c.LRSplit = true }, true},
		// What Threads=0 resolves to on a two-thread IPU model.
		{"thread count, small model", func(c *ipukernel.Config) { c.Threads = 2 }, true},
		{"explicit default thread count", func(c *ipukernel.Config) { c.Threads = platform.GC200.ThreadsPerTile }, true},
		{"time-only knobs", func(c *ipukernel.Config) { c.DualIssue, c.Parallelism = true, 4 }, true},
	} {
		mut := base
		tc.mut(&mut)
		if same := driver.KernelFingerprint(mut) == fp; same != tc.same {
			t.Errorf("%s: fingerprint equal = %v, want %v", tc.name, same, tc.same)
		}
	}
	// The kernel traces every comparison under any cutoff ≤ 0, so a
	// negative gate and no gate give identical results and share entries.
	traced, negative := base, base
	traced.Traceback = true
	negative.Traceback, negative.TraceMinScore = true, -1
	if driver.KernelFingerprint(negative) != driver.KernelFingerprint(traced) {
		t.Error("trace gate -1: fingerprint differs from the ungated traced one")
	}
}

// TestCacheServesAcrossSchedules: a result is a function of the comparison
// and the kernel parameters alone, so a cache warmed by a six-thread racy
// stealing run serves a one-thread static run in full, bit-identically.
func TestCacheServesAcrossSchedules(t *testing.T) {
	// Error-free pairs of one length cost the same per unit, so the
	// deterministic counters tie and steals race.
	d := synth.UniformPairs(synth.UniformPairsSpec{Count: 24, Length: 300, SeedLen: 17, Seed: 23})
	racy := cacheTestConfig()
	racy.Kernel.LRSplit, racy.Kernel.WorkStealing = true, true
	racy.TilesPerIPU = 1 // one long work list: counters tie and steals race
	static := cacheTestConfig()
	static.Kernel.Threads = 1

	want, err := driver.Run(clone(t, d), static)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines take the one cache through their run configuration.
	cache := newResultCache(1 << 12)
	racy.Cache, static.Cache = cache, cache
	warm := New(WithDriverConfig(racy))
	defer warm.Close()
	j := submit(t, warm, clone(t, d))
	cold := wait(t, j)
	if cold.Races == 0 {
		t.Fatal("warming run raced no steals")
	}

	served := New(WithDriverConfig(static))
	defer served.Close()
	j = submit(t, served, clone(t, d))
	got := wait(t, j)
	if got.CacheHits != len(d.Comparisons) {
		t.Fatalf("cache hits %d, want all %d comparisons", got.CacheHits, len(d.Comparisons))
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("cache-served results differ from a one-thread static run's")
	}
}

// TestStreamingPerComparisonUnderDedup: with dedup and the result cache
// on, job.Results() must still deliver exactly one result per submitted
// comparison, with GlobalID in the submitted dataset's index space and
// values bit-identical to the final report — including a warm job served
// entirely from the cache (a single Batch == -1 update).
func TestStreamingPerComparisonUnderDedup(t *testing.T) {
	base := cacheTestDataset(47)
	dup := dupDataset(base, 4)

	eng := New(WithDriverConfig(cacheTestConfig()), WithResultCache(1<<12))
	defer eng.Close()

	collect := func(warm bool) map[int]ipukernel.AlignOut {
		t.Helper()
		job := submit(t, eng, dup)
		got := make(map[int]ipukernel.AlignOut)
		for u := range job.Results() {
			if u.Batch == -1 && !warm && len(got) > 0 {
				t.Error("cache-served update did not lead the stream")
			}
			for _, o := range u.Results {
				if o.GlobalID < 0 || o.GlobalID >= len(dup.Comparisons) {
					t.Fatalf("streamed GlobalID %d outside the submitted comparison list", o.GlobalID)
				}
				if _, dupID := got[o.GlobalID]; dupID {
					t.Fatalf("comparison %d streamed twice", o.GlobalID)
				}
				got[o.GlobalID] = o
			}
		}
		rep := wait(t, job)
		if len(got) != len(dup.Comparisons) {
			t.Fatalf("streamed %d comparisons, submitted %d", len(got), len(dup.Comparisons))
		}
		for i, want := range rep.Results {
			if got[i] != want {
				t.Fatalf("streamed result %d %+v != report %+v", i, got[i], want)
			}
		}
		if warm && rep.Batches != 0 {
			t.Errorf("warm job executed %d batches", rep.Batches)
		}
		return got
	}

	cold := collect(false)
	warmGot := collect(true)
	for i := range cold {
		if cold[i] != warmGot[i] {
			t.Fatalf("warm stream result %d differs from cold", i)
		}
	}
}

// benchmarkSubmitDedup measures job throughput on a duplicate-heavy
// workload (each comparison planned 4×) under three engine modes; the
// dedup and cache rows should run ≥ 2× the jobs/s of the off row.
func benchmarkSubmitDedup(b *testing.B, submitters int, dedup bool, opts ...Option) {
	benchmarkJobs(b, dupDataset(submitPairs(), 4), submitters, dedup, opts...)
}

func BenchmarkSubmitDedupOff1(b *testing.B) { benchmarkSubmitDedup(b, 1, false) }
func BenchmarkSubmitDedupOn1(b *testing.B)  { benchmarkSubmitDedup(b, 1, true) }
func BenchmarkSubmitDedupCache1(b *testing.B) {
	benchmarkSubmitDedup(b, 1, false, WithResultCache(1<<14))
}
func BenchmarkSubmitDedupOff4(b *testing.B) { benchmarkSubmitDedup(b, 4, false) }
func BenchmarkSubmitDedupOn4(b *testing.B)  { benchmarkSubmitDedup(b, 4, true) }
func BenchmarkSubmitDedupCache4(b *testing.B) {
	benchmarkSubmitDedup(b, 4, false, WithResultCache(1<<14))
}

// TestSubmitDedupThroughputGain is the non-flaky acceptance proxy for the
// BenchmarkSubmitDedup* rows: on the same 4×-duplicated workload, dedup
// must cut the modeled device work to a quarter and a warm cache must cut
// the executed batches to zero — the structural facts behind the ≥ 2×
// host-throughput win the benchmarks measure.
func TestSubmitDedupThroughputGain(t *testing.T) {
	base := cacheTestDataset(31)
	dup := dupDataset(base, 4)

	run := func(dedup bool, opts ...Option) *driver.Report {
		cfg := cacheTestConfig()
		cfg.DedupExtensions = dedup
		eng := New(append([]Option{WithDriverConfig(cfg)}, opts...)...)
		defer eng.Close()
		var rep *driver.Report
		for i := 0; i < 2; i++ { // second submission warms the cache mode
			rep = wait(t, submit(t, eng, dup))
		}
		return rep
	}

	off := run(false)
	on := run(true)
	cached := run(false, WithResultCache(1<<14))

	// Host throughput scales with executed DP cells (each duplicate is a
	// real re-extension on the host); modeled superstep time does not
	// shrink here because duplicates ran on parallel tiles.
	if on.Cells*4 != off.Cells {
		t.Errorf("dedup executed %d cells, want a quarter of %d", on.Cells, off.Cells)
	}
	if on.TheoreticalCells*4 != off.TheoreticalCells {
		t.Errorf("dedup theoretical %d, want a quarter of %d", on.TheoreticalCells, off.TheoreticalCells)
	}
	if cached.Batches != 0 || cached.Cells != 0 {
		t.Errorf("warm cached job executed %d batches, %d cells", cached.Batches, cached.Cells)
	}
	for i := range off.Results {
		if on.Results[i] != off.Results[i] || cached.Results[i] != off.Results[i] {
			t.Fatalf("result %d differs across modes", i)
		}
	}
}

// TestEngineOptionOrderIrrelevant: the run configuration lives in
// WithDriverConfig alone, so the result cache and the driver config give
// the same engine in either order — same Config, same warm hits.
func TestEngineOptionOrderIrrelevant(t *testing.T) {
	d := cacheTestDataset(37)
	orders := [][]Option{
		{WithResultCache(1 << 12), WithDriverConfig(cacheTestConfig())},
		{WithDriverConfig(cacheTestConfig()), WithResultCache(1 << 12)},
	}
	var cfgs []driver.Config
	var warm []*driver.Report
	for _, opts := range orders {
		eng := New(opts...)
		cfg := eng.Config()
		if cfg.Cache == nil {
			t.Fatal("engine config carries no cache")
		}
		cfg.Cache = nil // each engine owns its own cache
		cfgs = append(cfgs, cfg)
		var rep *driver.Report
		for i := 0; i < 2; i++ {
			rep = wait(t, submit(t, eng, clone(t, d)))
		}
		eng.Close()
		if rep.CacheHits != rep.UniqueExtensions || rep.Batches != 0 {
			t.Errorf("resubmission: %d hits of %d unique, %d batches", rep.CacheHits, rep.UniqueExtensions, rep.Batches)
		}
		warm = append(warm, rep)
	}
	if !reflect.DeepEqual(cfgs[0], cfgs[1]) {
		t.Errorf("option order changed the engine config:\n%+v\n%+v", cfgs[0], cfgs[1])
	}
	if !reflect.DeepEqual(warm[0], warm[1]) {
		t.Error("option order changed the warm report")
	}
}
