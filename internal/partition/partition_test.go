package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testKernelCfg() ipukernel.Config {
	return ipukernel.Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
	}
}

func readsData(t *testing.T, seed int64) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "p", GenomeLen: 40000, Coverage: 8, MeanReadLen: 2000, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: seed,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// coverage checks every comparison appears in exactly one item.
func coverage(t *testing.T, d *workload.Dataset, items []Item) {
	t.Helper()
	seen := make([]int, len(d.Comparisons))
	for _, it := range items {
		for _, ci := range it.Cmps {
			seen[ci]++
		}
		// Item sequence lists must cover their comparisons and stay
		// unique.
		have := map[int]bool{}
		for _, s := range it.Seqs {
			if have[s] {
				t.Fatalf("duplicate sequence %d in item", s)
			}
			have[s] = true
		}
		for _, ci := range it.Cmps {
			c := d.Comparisons[ci]
			if !have[c.H] || !have[c.V] {
				t.Fatalf("item missing sequences of comparison %d", ci)
			}
		}
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("comparison %d assigned %d times", ci, n)
		}
	}
}

func TestBuildItemsNoReuse(t *testing.T) {
	d := readsData(t, 1)
	items := BuildItems(d, Options{SeqBudget: 1 << 20, Reuse: false})
	coverage(t, d, items)
	if len(items) != len(d.Comparisons) {
		t.Fatalf("no-reuse should yield one item per comparison: %d != %d", len(items), len(d.Comparisons))
	}
	if rf := ReuseFactor(d, items); rf != 1 {
		t.Errorf("no-reuse ReuseFactor = %f, want 1", rf)
	}
}

func TestBuildItemsWithReuse(t *testing.T) {
	d := readsData(t, 2)
	items := BuildItems(d, Options{SeqBudget: 200_000, Reuse: true})
	coverage(t, d, items)
	if len(items) >= len(d.Comparisons) {
		t.Errorf("reuse produced %d items for %d comparisons — no grouping", len(items), len(d.Comparisons))
	}
	rf := ReuseFactor(d, items)
	if rf <= 1.2 {
		t.Errorf("reuse factor %.2f too low for an overlap graph", rf)
	}
	// Budget must hold for every item (single-comparison spillovers may
	// exceed it only when one comparison alone is larger).
	for _, it := range items {
		if it.Bytes > 200_000 && len(it.Cmps) > 1 {
			t.Errorf("multi-comparison item exceeds budget: %d B", it.Bytes)
		}
	}
}

func TestBuildItemsRespectsTinyBudget(t *testing.T) {
	d := readsData(t, 3)
	items := BuildItems(d, Options{SeqBudget: 1, Reuse: true}) // nothing fits: every comparison alone
	coverage(t, d, items)
	for _, it := range items {
		if len(it.Cmps) != 1 {
			t.Fatalf("tiny budget produced a grouped item with %d comparisons", len(it.Cmps))
		}
	}
}

func TestCostEstimate(t *testing.T) {
	d := workload.MustPack("", [][]byte{make([]byte, 100), make([]byte, 80)},
		[]workload.Comparison{{H: 0, V: 1, SeedH: 40, SeedV: 30, SeedLen: 10}}, false)
	// left: 40×30, right: 50×40.
	want := float64(40*30 + 50*40)
	if got := CostEstimate(d, d.Comparisons[0]); got != want {
		t.Errorf("CostEstimate = %f, want %f", got, want)
	}
}

func TestMakeBatchesCoverageAndMemory(t *testing.T) {
	d := readsData(t, 4)
	cfg := testKernelCfg()
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	batches, err := MakeBatchesFanout(d, items, 16, cfg, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(d.Comparisons))
	for _, b := range batches {
		if len(b.Tiles) > 16 {
			t.Fatalf("batch uses %d tiles, limit 16", len(b.Tiles))
		}
		for ti := range b.Tiles {
			tw := &b.Tiles[ti]
			if mem := cfg.TileMemoryBytes(tw, platform.GC200); mem > platform.GC200.DataSRAM() {
				t.Fatalf("tile memory %d exceeds SRAM budget", mem)
			}
			for _, j := range tw.Jobs {
				seen[j.GlobalID]++
				// Local references must resolve.
				if j.HLocal >= len(tw.Seqs) || j.VLocal >= len(tw.Seqs) {
					t.Fatal("dangling local sequence reference")
				}
			}
		}
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("comparison %d scheduled %d times", ci, n)
		}
	}
}

func TestMakeBatchesFewerWithReuse(t *testing.T) {
	// The §6.2 measurement: partitioning reduces batch count (−52% for
	// E. coli 100x, −44% for C. elegans). Two tiles force multi-batch
	// schedules at this workload size.
	d := synth.Reads(synth.ReadsSpec{
		Name: "dense", GenomeLen: 80000, Coverage: 12, MeanReadLen: 2000, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 5,
	})
	cfg := testKernelCfg()
	tiles := 2
	single, err := MakeBatchesFanout(d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: false}), tiles, cfg, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MakeBatchesFanout(d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: true}), tiles, cfg, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) < 2 {
		t.Fatalf("workload too small to exercise batching: %d batches", len(single))
	}
	if len(multi) >= len(single) {
		t.Errorf("partitioning did not reduce batches: %d -> %d", len(single), len(multi))
	}
}

func TestMakeBatchesLoadBalance(t *testing.T) {
	d := readsData(t, 6)
	cfg := testKernelCfg()
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	batches, err := MakeBatchesFanout(d, items, 4, cfg, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// In the first (fullest) batch, tile cost estimates should be within
	// a reasonable factor of each other (LPT guarantee-ish).
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	b := batches[0]
	if len(b.Tiles) < 2 {
		t.Skip("not enough tiles to assess balance")
	}
	var lo, hi float64
	for ti := range b.Tiles {
		var load float64
		for _, j := range b.Tiles[ti].Jobs {
			load += CostEstimate(d, d.Comparisons[j.GlobalID])
		}
		if ti == 0 || load < lo {
			lo = load
		}
		if load > hi {
			hi = load
		}
	}
	if lo <= 0 || hi/lo > 20 {
		t.Errorf("first batch badly balanced: min %.0f max %.0f", lo, hi)
	}
}

func TestMakeBatchesErrors(t *testing.T) {
	d := readsData(t, 7)
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	if _, err := MakeBatchesFanout(d, items, 0, testKernelCfg(), platform.GC200, 0, nil); err == nil {
		t.Error("tiles=0 accepted")
	}
	// An item that cannot fit even an empty tile must be rejected.
	big := workload.MustPack("", [][]byte{make([]byte, 400*1024), make([]byte, 400*1024)},
		[]workload.Comparison{{H: 0, V: 1, SeedH: 1000, SeedV: 1000, SeedLen: 17}}, false)
	bigItems := BuildItems(big, Options{SeqBudget: 1 << 30, Reuse: false})
	if _, err := MakeBatchesFanout(big, bigItems, 4, testKernelCfg(), platform.GC200, 0, nil); err == nil {
		t.Error("oversized item accepted")
	}
}

func TestStandardAlgoNeedsMoreBatches(t *testing.T) {
	// The abstract's claim that memory restriction improves scaling:
	// Standard3's 3δ·threads buffers crowd sequences out of SRAM, so the
	// same workload needs more batches than Restricted2 with a small δb.
	d := synth.Reads(synth.ReadsSpec{
		Name: "long", GenomeLen: 150000, Coverage: 8, MeanReadLen: 4500, MinReadLen: 2500,
		MaxReadLen: 6000,
		Errors:     synth.HiFiDNA(), SeedLen: 17, MinOverlap: 2000, Seed: 8, MaxComparisons: 160,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := 1
	restricted := testKernelCfg()
	rBudget, err := DeriveSeqBudget(d, restricted, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MakeBatchesFanout(d, BuildItems(d, Options{SeqBudget: rBudget, Reuse: true}), tiles, restricted, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	standard := restricted
	standard.Params.Algo = core.AlgoStandard3
	sBudget, err := DeriveSeqBudget(d, standard, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	if sBudget >= rBudget {
		t.Fatalf("standard budget %d should be below restricted %d", sBudget, rBudget)
	}
	sb, err := MakeBatchesFanout(d, BuildItems(d, Options{SeqBudget: sBudget, Reuse: true}), tiles, standard, platform.GC200, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb) <= len(rb) {
		t.Errorf("standard3 (%d batches) should need more batches than restricted2 (%d)", len(sb), len(rb))
	}
}

// TestBuildItemsCoverageFuzz drives the greedy walk across many random
// graph shapes and budgets; every comparison must land in exactly one
// item (regression: edges skipped at partition boundaries used to be
// lost when both endpoints had already left the frontier).
func TestBuildItemsCoverageFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nSeqs := 2 + rng.Intn(40)
		seqs := make([][]byte, nSeqs)
		for i := range seqs {
			seqs[i] = make([]byte, 50+rng.Intn(500))
		}
		var cmps []workload.Comparison
		nCmps := rng.Intn(120)
		for i := 0; i < nCmps; i++ {
			h, v := rng.Intn(nSeqs), rng.Intn(nSeqs)
			if h == v {
				continue
			}
			cmps = append(cmps, workload.Comparison{
				H: h, V: v, SeedH: 10, SeedV: 10, SeedLen: 17,
			})
		}
		d := workload.MustPack("", seqs, cmps, false)
		budget := 100 + rng.Intn(3000)
		maxCmps := []int{0, 1, 3, 10}[trial%4]
		items := BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: maxCmps})
		coverage(t, d, items)
		if maxCmps > 0 {
			for _, it := range items {
				if len(it.Cmps) > maxCmps {
					t.Fatalf("trial %d: item holds %d cmps, cap %d", trial, len(it.Cmps), maxCmps)
				}
			}
		}
	}
}

// TestBuildItemsFrontierPreservedAcrossFlush pins the boundary-restart
// fix: closing a full partition used to reset the walk queue to just the
// current vertex (`queue = append(queue[:0], u)`), discarding frontier
// vertices discovered earlier. Their unassigned edges could only
// resurface when those vertices' own seed turns came — or, if those had
// already passed, in the reuse-blind mop-up sweep — fragmenting
// partitions on dense graphs. This workload (found by searching random
// graphs against the old walk) yielded ReuseFactor 2.81 before the fix
// and 3.48 with the frontier preserved; the threshold sits between the
// two so a regression to the old restart fails loudly.
func TestBuildItemsFrontierPreservedAcrossFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(796))
	n := 12 + rng.Intn(30)
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = make([]byte, 200+rng.Intn(600))
	}
	var cmps []workload.Comparison
	m := 30 + rng.Intn(120)
	for i := 0; i < m; i++ {
		h, v := rng.Intn(n), rng.Intn(n)
		if h == v {
			continue
		}
		cmps = append(cmps, workload.Comparison{
			H: h, V: v, SeedH: 10, SeedV: 10, SeedLen: 17,
		})
	}
	d := workload.MustPack("", seqs, cmps, false)
	budget := 1000 + rng.Intn(2500)
	items := BuildItems(d, Options{SeqBudget: budget, Reuse: true})
	coverage(t, d, items)
	if rf := ReuseFactor(d, items); rf < 3.0 {
		t.Errorf("ReuseFactor = %.3f, want ≥ 3.0 (old frontier-discarding walk scored 2.81)", rf)
	}
	for _, it := range items {
		if it.Bytes > budget && len(it.Cmps) > 1 {
			t.Errorf("multi-comparison item exceeds budget: %d B", it.Bytes)
		}
	}
}

func TestDeriveSeqBudget(t *testing.T) {
	// 25 kb reads: the unrestricted variants cannot fit tile SRAM at all
	// (the paper's headline constraint), the restricted one can.
	d := workload.MustPack("", [][]byte{make([]byte, 25000), make([]byte, 25000)},
		[]workload.Comparison{{H: 0, V: 1, SeedH: 12500, SeedV: 12500, SeedLen: 17}}, false)
	cfg := testKernelCfg() // δb = 256
	budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
	if err != nil || budget < 50000 {
		t.Fatalf("restricted budget = %d, err = %v", budget, err)
	}
	cfg.Params.Algo = core.AlgoStandard3
	if _, err := DeriveSeqBudget(d, cfg, platform.GC200); err == nil {
		t.Fatal("standard3 on 25kb reads should not fit tile SRAM")
	}
	cfg.Params.Algo = core.AlgoRestricted2
	cfg.Params.DeltaB = 0 // unbounded restricted: 2δ also too large for 6 threads
	if _, err := DeriveSeqBudget(d, cfg, platform.GC200); err == nil {
		t.Fatal("unbounded 2δ buffers on 25kb reads should not fit six threads")
	}
}

// TestTracebackBudgetAdmitsWithinSRAM pins ROADMAP item (a): with
// traceback enabled, the derived sequence budget must only admit tiles
// whose full SRAM model — work buffers plus the shared trace arena —
// fits the device, and the modeled arena allowance must dominate the
// peak trace footprint the kernel actually records while replaying
// extensions. Exercised across every kernel tier so the narrow-tier
// working-set savings never under-charge the trace arena.
func TestTracebackBudgetAdmitsWithinSRAM(t *testing.T) {
	for _, tier := range []core.Tier{core.TierWide, core.TierNarrow, core.TierAuto} {
		d := readsData(t, 11)
		cfg := testKernelCfg()
		cfg.Traceback = true
		cfg.Params.Tier = tier
		budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		// MaxCmps mirrors the driver's spread cap: it also keeps the
		// per-item tuple/result overhead inside the budget allowance.
		items := BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: 64})
		batches, err := MakeBatchesFanout(d, items, 8, cfg, platform.GC200, 0, nil)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		for _, b := range batches {
			allowance := 0
			for ti := range b.Tiles {
				tw := &b.Tiles[ti]
				if mem := cfg.TileMemoryBytes(tw, platform.GC200); mem > platform.GC200.DataSRAM() {
					t.Fatalf("tier %v: admitted tile needs %d B of the %d B SRAM",
						tier, mem, platform.GC200.DataSRAM())
				}
				for _, j := range tw.Jobs {
					hn, vn := int(tw.Seqs[j.HLocal].Len), int(tw.Seqs[j.VLocal].Len)
					for _, tb := range []int{
						cfg.ExtensionTraceBytes(j.SeedH, j.SeedV),
						cfg.ExtensionTraceBytes(hn-j.SeedH-j.SeedLen, vn-j.SeedV-j.SeedLen),
					} {
						if tb > allowance {
							allowance = tb
						}
					}
				}
			}
			arena, _ := d.Spine()
			res, err := ipukernel.Run(ipu.New(ipu.Config{Model: platform.GC200}), b.Bound(arena.SlabViews()), cfg)
			if err != nil {
				t.Fatalf("tier %v: %v", tier, err)
			}
			if res.PeakTracebackBytes == 0 {
				t.Fatalf("tier %v: traceback run recorded no trace bytes", tier)
			}
			if res.PeakTracebackBytes > allowance {
				t.Fatalf("tier %v: peak trace %d B exceeds modeled arena allowance %d B",
					tier, res.PeakTracebackBytes, allowance)
			}
		}
	}
}

// The exhaustive-scan batcher MakeBatchesFanout replaced, moved here
// verbatim (identifiers renamed only) as the oracle: for every item it
// evaluates the full SRAM formula on all `tiles` builders and takes the
// least-loaded one that fits, lowest index on ties.
type scanTileBuilder struct {
	work      ipukernel.TileWork
	localIdx  map[int]int
	load      float64
	seqBytes  int
	maxMin    int
	maxFused  int
	maxReplay int
}

func newScanTileBuilder() *scanTileBuilder {
	return &scanTileBuilder{localIdx: make(map[int]int)}
}

func (tb *scanTileBuilder) memoryWith(refs []workload.SeqRef, plan *workload.Plan, it *Item, cfg ipukernel.Config, threads int) int {
	seqBytes := tb.seqBytes
	nSeqs := len(tb.work.Seqs)
	for _, s := range it.Seqs {
		if _, ok := tb.localIdx[s]; !ok || it.Copies {
			seqBytes += int(refs[s].Len)
			nSeqs++
		}
	}
	nJobs := len(tb.work.Jobs) + len(it.Cmps)
	maxMin, maxFused, maxReplay := tb.maxMin, tb.maxFused, tb.maxReplay
	// Same comparison source as add(): admission and placement must
	// agree on seed geometry.
	for _, ci := range it.Cmps {
		c := plan.At(ci)
		if mm := cmpMaxMin(refs, c); mm > maxMin {
			maxMin = mm
		}
		f, r := cmpTraceCharges(refs, c, cfg)
		maxFused = max(maxFused, f)
		maxReplay = max(maxReplay, r)
	}
	return seqBytes + nSeqs*8 + nJobs*ipukernel.JobTupleBytes +
		threads*cfg.WorkBufBytesPerThread(maxMin) +
		threads*maxFused + maxReplay +
		nJobs*ipukernel.ResultBytes + 64
}

func (tb *scanTileBuilder) add(refs []workload.SeqRef, plan *workload.Plan, it *Item, cfg ipukernel.Config, fanout []int32) {
	for _, s := range it.Seqs {
		if _, ok := tb.localIdx[s]; !ok || it.Copies {
			tb.localIdx[s] = len(tb.work.Seqs)
			tb.work.Seqs = append(tb.work.Seqs, refs[s])
			tb.seqBytes += int(refs[s].Len)
		}
	}
	for _, ci := range it.Cmps {
		c := plan.At(ci)
		job := ipukernel.SeedJob{
			HLocal: tb.localIdx[c.H],
			VLocal: tb.localIdx[c.V],
			SeedH:  c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen,
			GlobalID: ci,
		}
		if fanout != nil {
			job.Fanout = int(fanout[ci])
		}
		tb.work.Jobs = append(tb.work.Jobs, job)
		if mm := cmpMaxMin(refs, c); mm > tb.maxMin {
			tb.maxMin = mm
		}
		f, r := cmpTraceCharges(refs, c, cfg)
		tb.maxFused = max(tb.maxFused, f)
		tb.maxReplay = max(tb.maxReplay, r)
	}
	tb.load += it.Cost
}

func makeBatchesExhaustiveScan(d *workload.Dataset, items []Item, tiles int, cfg ipukernel.Config, model platform.IPUModel, maxJobs int, fanout []int32) ([]*ipukernel.Batch, error) {
	if tiles <= 0 {
		return nil, fmt.Errorf("partition: tiles must be positive")
	}
	if maxJobs <= 0 {
		maxJobs = 1 << 30
	}
	threads := cfg.Threads
	if threads <= 0 || threads > model.ThreadsPerTile {
		threads = model.ThreadsPerTile
	}
	budget := model.DataSRAM()
	arena, plan := d.Spine()
	refs := arena.Refs()

	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return items[order[a]].Cost > items[order[b]].Cost })

	var batches []*ipukernel.Batch
	var builders []*scanTileBuilder

	closeBatch := func() {
		if len(builders) == 0 {
			return
		}
		b := &ipukernel.Batch{}
		for _, tb := range builders {
			if len(tb.work.Jobs) > 0 {
				b.Tiles = append(b.Tiles, tb.work)
			}
		}
		if len(b.Tiles) > 0 {
			batches = append(batches, b)
		}
		builders = nil
	}

	batchJobs := 0
	for _, idx := range order {
		it := &items[idx]
		placed := false
		for attempt := 0; attempt < 2 && !placed; attempt++ {
			if batchJobs+len(it.Cmps) > maxJobs && batchJobs > 0 {
				closeBatch()
				batchJobs = 0
			}
			if builders == nil {
				builders = make([]*scanTileBuilder, tiles)
				for i := range builders {
					builders[i] = newScanTileBuilder()
				}
			}
			// Least-loaded tile that still fits the item.
			best := -1
			for ti, tb := range builders {
				if tb.memoryWith(refs, plan, it, cfg, threads) > budget {
					continue
				}
				if best < 0 || tb.load < builders[best].load {
					best = ti
				}
			}
			if best >= 0 {
				builders[best].add(refs, plan, it, cfg, fanout)
				batchJobs += len(it.Cmps)
				placed = true
				break
			}
			// No room anywhere: start a fresh batch and retry once.
			closeBatch()
			batchJobs = 0
		}
		if !placed {
			return nil, fmt.Errorf("partition: item with %d comparisons (%d B of sequences) cannot fit an empty tile; reduce δb or split the item",
				len(it.Cmps), it.Bytes)
		}
	}
	closeBatch()
	return batches, nil
}

// TestMakeBatchesMatchesExhaustiveScan pins the batcher's invariant — the
// first candidate that fits in (load, index) order is the old argmin over
// all tiles — by comparing whole schedules against the scan it replaced,
// across the inputs that steer placement: tile count, job cap, private
// copies (Reuse off), trace charges, SRAM tight enough that most
// candidates are full, zero-cost items (load ties between used and empty
// tiles) and budgets that leave an item unplaceable.
func TestMakeBatchesMatchesExhaustiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	unplaceable := 0
	for trial := 0; trial < 60; trial++ {
		meanLen := []int{150, 600, 2000}[trial%3]
		d := synth.Reads(synth.ReadsSpec{
			Name: "oracle", GenomeLen: 12 * meanLen, Coverage: 6 + float64(rng.Intn(10)),
			MeanReadLen: meanLen, MinReadLen: meanLen / 2, MaxReadLen: 3 * meanLen / 2, Errors: synth.HiFiDNA(),
			SeedLen: 17, MinOverlap: meanLen / 4, Seed: int64(1000 + trial), MaxComparisons: 1500,
		})
		cfg := testKernelCfg()
		cfg.Traceback = trial%4 >= 2
		model := platform.GC200
		model.SRAMPerTile = model.CodeReserve + []int{32, 64, 128, 552}[rng.Intn(4)]<<10
		budget, err := DeriveSeqBudget(d, cfg, model)
		if err != nil { // trace arenas of the longer reads need the real tile
			model = platform.GC200
			if budget, err = DeriveSeqBudget(d, cfg, model); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		switch rng.Intn(4) {
		case 0: // every comparison alone
			budget = 1
		case 1: // items the SRAM gate must refuse
			budget *= 4
		}
		items := BuildItems(d, Options{SeqBudget: budget, Reuse: trial%2 == 0, MaxCmps: []int{0, 3, 40}[rng.Intn(3)]})
		for i := range items {
			if rng.Intn(5) == 0 {
				items[i].Cost = 0
			}
		}
		tiles := 1 + rng.Intn(1472)
		if rng.Intn(3) == 0 {
			tiles = 1 + rng.Intn(8)
		}
		maxJobs := []int{0, 1, 7, 64, 500}[rng.Intn(5)]
		var fanout []int32
		if rng.Intn(2) == 0 {
			fanout = make([]int32, len(d.Comparisons))
			for i := range fanout {
				fanout[i] = int32(1 + rng.Intn(4))
			}
		}
		want, wantErr := makeBatchesExhaustiveScan(d, items, tiles, cfg, model, maxJobs, fanout)
		got, gotErr := MakeBatchesFanout(d, items, tiles, cfg, model, maxJobs, fanout)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error %v, exhaustive scan %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			unplaceable++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (tiles %d, maxJobs %d, %d items): %d batches differ from the exhaustive scan's %d",
				trial, tiles, maxJobs, len(items), len(got), len(want))
		}
	}
	if unplaceable == 0 || unplaceable == 60 {
		t.Errorf("%d of 60 trials hit an unplaceable item; the sweep should cover both outcomes", unplaceable)
	}
}

// shortReadItems is the benchmark's shortread_plan shape: 150 bp reads,
// tens of thousands of tiny comparisons, the driver's spread cap for 184
// tiles × SpreadFactor 3.
func shortReadItems(tb testing.TB, comparisons int) (*workload.Dataset, []Item, ipukernel.Config) {
	tb.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "short", GenomeLen: 8_400, Coverage: 30, MeanReadLen: 150, MinReadLen: 100, MaxReadLen: 250,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 40, Seed: 4001, MaxComparisons: comparisons,
	})
	cfg := testKernelCfg()
	cfg.Params.X, cfg.Params.DeltaB = 5, 32
	budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
	if err != nil {
		tb.Fatal(err)
	}
	maxCmps := (len(d.Comparisons) + 184*3 - 1) / (184 * 3)
	return d, BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: maxCmps}), cfg
}

// TestMakeBatchesAllocsIndependentOfTiles keeps the O(tiles) blow-up from
// coming back silently: the same items batched for a full GC200 allocate
// within 10% of what they do for a 1/8-scale one.
func TestMakeBatchesAllocsIndependentOfTiles(t *testing.T) {
	d, items, cfg := shortReadItems(t, 8_000)
	allocs := func(tiles int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := MakeBatchesFanout(d, items, tiles, cfg, platform.GC200, 64, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, full := allocs(184), allocs(1472)
	if full > 1.1*small {
		t.Errorf("allocs/run grew with the device: %.0f at 184 tiles, %.0f at 1472", small, full)
	}
}

func BenchmarkMakeBatches(b *testing.B) {
	d, items, cfg := shortReadItems(b, 32_000)
	for _, tiles := range []int{184, 1472} {
		for _, maxJobs := range []int{64, 0} {
			b.Run(fmt.Sprintf("tiles=%d/maxJobs=%d", tiles, maxJobs), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := MakeBatchesFanout(d, items, tiles, cfg, platform.GC200, maxJobs, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
