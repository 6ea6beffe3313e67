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

// reuseFactor is the items' transfer saving read item by item: naive
// per-comparison sequence bytes (a self-comparison's sequence once) over
// the bytes the items carry. The planner takes the naive bytes from its
// pricing pass (Planner.ReuseFactor); TestPlannerMatchesItemOrderPricing
// holds the two equal.
func reuseFactor(d *workload.Dataset, items []Item) float64 {
	arena, plan := d.Spine()
	refs := arena.Refs()
	var naive, actual int64
	for _, it := range items {
		actual += int64(it.Bytes)
		for _, ci := range it.Cmps {
			h, v := plan.H[ci], plan.V[ci]
			naive += int64(refs[h].Len)
			if v != h {
				naive += int64(refs[v].Len)
			}
		}
	}
	if actual == 0 {
		return 1
	}
	return float64(naive) / float64(actual)
}

// walkOrderCosts is the per-item pricing the walk did before the
// planner's pricing pass, kept as the reference: each item's Cost summed
// over its comparisons in the order the walk took them (its Cmps order),
// each CostEstimate read from the geometry there.
func walkOrderCosts(d *workload.Dataset, items []Item) []float64 {
	arena, plan := d.Spine()
	costs := make([]float64, len(items))
	for i, it := range items {
		for _, ci := range it.Cmps {
			costs[i] += CostEstimate(plan.ExtensionLens(arena.Refs(), ci))
		}
	}
	return costs
}

// itemOrderCharges is the per-item Charge the batcher folded before the
// pricing pass, kept as the reference: each item's comparisons' Charges
// in item order.
func itemOrderCharges(d *workload.Dataset, items []Item, cfg ipukernel.Config) []ipukernel.Charge {
	arena, plan := d.Spine()
	charges := make([]ipukernel.Charge, len(items))
	for i, it := range items {
		for _, ci := range it.Cmps {
			charges[i] = charges[i].With(cfg.ExtensionCharge(plan.ExtensionLens(arena.Refs(), ci)))
		}
	}
	return charges
}

// samePricing fails unless the planner prices items exactly as the
// references do: its items are BuildItems' under opt, every Item.Cost is
// bit-equal to the walk-order sum and every item's Charge to the
// item-order fold, every tile of batches (when given) is charged the fold
// of its jobs' Charges, and the reuse factor equals the item-by-item one.
func samePricing(tb testing.TB, d *workload.Dataset, opt Options, cfg ipukernel.Config, model platform.IPUModel, batches []*ipukernel.Batch) {
	tb.Helper()
	items := BuildItems(d, opt)
	p := NewPlanner(d, cfg, model)
	p.BuildItems(opt)
	if !reflect.DeepEqual(p.items, items) {
		tb.Fatalf("the planner's %d items differ from BuildItems' %d", len(p.items), len(items))
	}
	for i, want := range walkOrderCosts(d, items) {
		if items[i].Cost != want {
			tb.Fatalf("item %d costs %v, the walk-order sum %v", i, items[i].Cost, want)
		}
	}
	if len(p.charges) != len(items) {
		tb.Fatalf("%d item Charges for %d items", len(p.charges), len(items))
	}
	for i, want := range itemOrderCharges(d, items, cfg) {
		if p.charges[i] != want {
			tb.Fatalf("item %d charged %+v, the item-order fold %+v", i, p.charges[i], want)
		}
	}
	arena, plan := d.Spine()
	itemOf := make([]int, plan.Len())
	for i := range items {
		for _, ci := range items[i].Cmps {
			itemOf[ci] = i
		}
	}
	for bi, b := range batches {
		for ti := range b.Tiles {
			var rows, want ipukernel.Charge
			for _, job := range b.Tiles[ti].Jobs {
				ci := int(job.GlobalID)
				want = want.With(cfg.ExtensionCharge(plan.ExtensionLens(arena.Refs(), ci)))
				rows = rows.With(p.charges[itemOf[ci]])
			}
			if rows != want {
				tb.Fatalf("batch %d tile %d charged %+v, its jobs' fold %+v", bi, ti, rows, want)
			}
		}
	}
	if rf, want := p.ReuseFactor(), reuseFactor(d, items); rf != want {
		tb.Fatalf("reuse factor %v, item by item %v", rf, want)
	}
}

// mustBudget is DeriveSeqBudget of d, failing the test on an error.
func mustBudget(t testing.TB, d *workload.Dataset, cfg ipukernel.Config, model platform.IPUModel) int {
	t.Helper()
	budget, err := DeriveSeqBudget(d, cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	return budget
}

// mustBatches is MakeBatchesFanout of items, failing the test on an error.
func mustBatches(t testing.TB, d *workload.Dataset, items []Item, tiles int, cfg ipukernel.Config, model platform.IPUModel, maxJobs int, fanout []int32) []*ipukernel.Batch {
	t.Helper()
	batches, err := MakeBatchesFanout(d, items, tiles, cfg, model, maxJobs, fanout)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

func TestBuildItemsNoReuse(t *testing.T) {
	d := readsData(t, 1)
	items := BuildItems(d, Options{SeqBudget: 1 << 20, Reuse: false})
	coverage(t, d, items)
	if len(items) != len(d.Comparisons) {
		t.Fatalf("no-reuse should yield one item per comparison: %d != %d", len(items), len(d.Comparisons))
	}
	if rf := reuseFactor(d, items); rf != 1 {
		t.Errorf("no-reuse ReuseFactor = %f, want 1", rf)
	}
}

// TestReuseFactorSelfComparison: a self-comparison ships its sequence
// once, so a dataset of nothing else, planned without reuse, has no
// reuse to report.
func TestReuseFactorSelfComparison(t *testing.T) {
	d := workload.MustPack("", [][]byte{make([]byte, 100), make([]byte, 80)},
		[]workload.Comparison{
			{H: 0, V: 0, SeedH: 40, SeedV: 10, SeedLen: 10},
			{H: 1, V: 1, SeedH: 5, SeedV: 30, SeedLen: 10},
		}, false)
	items := BuildItems(d, Options{SeqBudget: 1 << 20, Reuse: false})
	coverage(t, d, items)
	if rf := reuseFactor(d, items); rf != 1 {
		t.Errorf("ReuseFactor = %.3f over self-comparisons without reuse, want 1", rf)
	}
}

// TestBuildItemsSelfComparisonChargedOnce: a self-comparison's sequence
// ships once, so it grows the open partition by one copy. Charged twice,
// the 60-byte self-comparison below would exceed the 100-byte budget on
// its own and become its own item, and its sequence would ship again with
// the other comparison; charged once, both fit one 90-byte partition.
func TestBuildItemsSelfComparisonChargedOnce(t *testing.T) {
	d := workload.MustPack("", [][]byte{make([]byte, 60), make([]byte, 30)},
		[]workload.Comparison{
			{H: 0, V: 0, SeedH: 5, SeedV: 20, SeedLen: 17},
			{H: 0, V: 1, SeedH: 30, SeedV: 5, SeedLen: 17},
		}, false)
	items := BuildItems(d, Options{SeqBudget: 100, Reuse: true})
	coverage(t, d, items)
	if len(items) != 1 || items[0].Bytes != 90 {
		t.Fatalf("items = %+v, want one 90-byte item", items)
	}
	if rf := reuseFactor(d, items); rf != 150.0/90 {
		t.Errorf("ReuseFactor = %.3f, want %.3f", rf, 150.0/90)
	}
}

func TestBuildItemsWithReuse(t *testing.T) {
	d := readsData(t, 2)
	items := BuildItems(d, Options{SeqBudget: 200_000, Reuse: true})
	coverage(t, d, items)
	if len(items) >= len(d.Comparisons) {
		t.Errorf("reuse produced %d items for %d comparisons — no grouping", len(items), len(d.Comparisons))
	}
	rf := reuseFactor(d, items)
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
	if got := CostEstimate(d.ExtensionLens(d.Comparisons[0])); got != want {
		t.Errorf("CostEstimate = %f, want %f", got, want)
	}
}

func TestMakeBatchesCoverageAndMemory(t *testing.T) {
	d := readsData(t, 4)
	cfg := testKernelCfg()
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	batches := mustBatches(t, d, items, 16, cfg, platform.GC200, 0, nil)
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
	single := mustBatches(t, d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: false}), tiles, cfg, platform.GC200, 0, nil)
	multi := mustBatches(t, d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: true}), tiles, cfg, platform.GC200, 0, nil)
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
	batches := mustBatches(t, d, items, 4, cfg, platform.GC200, 0, nil)
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
			load += CostEstimate(d.ExtensionLens(d.Comparisons[j.GlobalID]))
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
	rBudget := mustBudget(t, d, restricted, platform.GC200)
	rb := mustBatches(t, d, BuildItems(d, Options{SeqBudget: rBudget, Reuse: true}), tiles, restricted, platform.GC200, 0, nil)
	standard := restricted
	standard.Params.Algo = core.AlgoStandard3
	sBudget := mustBudget(t, d, standard, platform.GC200)
	if sBudget >= rBudget {
		t.Fatalf("standard budget %d should be below restricted %d", sBudget, rBudget)
	}
	sb := mustBatches(t, d, BuildItems(d, Options{SeqBudget: sBudget, Reuse: true}), tiles, standard, platform.GC200, 0, nil)
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
		d := randomGraph(rng)
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

// randomGraph is a dataset of 2–41 sequences of 50–549 bases and up to
// 120 comparisons between random distinct pairs.
func randomGraph(rng *rand.Rand) *workload.Dataset {
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
	return workload.MustPack("", seqs, cmps, false)
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
	if rf := reuseFactor(d, items); rf < 3.0 {
		t.Errorf("ReuseFactor = %.3f, want ≥ 3.0 (old frontier-discarding walk scored 2.81)", rf)
	}
	for _, it := range items {
		if it.Bytes > budget && len(it.Cmps) > 1 {
			t.Errorf("multi-comparison item exceeds budget: %d B", it.Bytes)
		}
	}
}

// buildItemsRescan is BuildItems before the walk kept a cursor per
// vertex: every scan of a vertex starts at its first edge and steps over
// the assigned ones. It is the oracle BuildItems must match item for item.
func buildItemsRescan(d *workload.Dataset, opt Options) []Item {
	arena, plan := d.Spine()
	refs := arena.Refs()
	seqBudget := opt.SeqBudget
	maxCmps := opt.MaxCmps
	if maxCmps <= 0 {
		maxCmps = plan.Len() + 1
	}
	if !opt.Reuse {
		items := make([]Item, 0, plan.Len())
		for ci := 0; ci < plan.Len(); ci++ {
			c := plan.At(ci)
			it := Item{
				Seqs:   []int{c.H},
				Cmps:   []int{ci},
				Cost:   CostEstimate(d.ExtensionLens(c)),
				Copies: true,
			}
			it.Bytes = int(refs[c.H].Len)
			if c.V != c.H {
				it.Seqs = append(it.Seqs, c.V)
				it.Bytes += int(refs[c.V].Len)
			}
			items = append(items, it)
		}
		return items
	}

	// Greedy graph growing (§4.3): start from a vertex, walk through its
	// edge list adding the adjacent vertices to the partition, and keep
	// following the newly added vertices' edges until the next vertex
	// would exceed the memory budget; then start a new partition. The
	// frontier walk keeps partitions topologically local regardless of
	// the sequence numbering, which is what makes reuse high on overlap
	// graphs. The walk scans only the plan's H/V columns — the seed
	// columns stay cold.
	//
	// vertex → incident edges in plan order, as one CSR: count degrees
	// two slots ahead, prefix-sum so off[v+1] is v's first slot, then fill
	// while advancing off[v+1] to v's end — which is v+1's start, leaving
	// v's edges at edges[off[v]:off[v+1]].
	off := make([]int32, len(refs)+2)
	for ci, h := range plan.H {
		off[h+2]++
		if v := plan.V[ci]; v != h {
			off[v+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	edges := make([]int32, off[len(off)-1])
	for ci, h := range plan.H {
		edges[off[h+1]] = int32(ci)
		off[h+1]++
		if v := plan.V[ci]; v != h {
			edges[off[v+1]] = int32(ci)
			off[v+1]++
		}
	}

	var items []Item
	assigned := make([]bool, plan.Len())
	inPart := make([]int, len(refs)) // vertex → open-partition stamp
	for i := range inPart {
		inPart[i] = -1
	}
	var cur Item
	stamp := 0

	flush := func() {
		if len(cur.Cmps) > 0 {
			items = append(items, cur)
		}
		cur = Item{}
		stamp++
	}
	addSeq := func(s int) {
		if inPart[s] != stamp {
			inPart[s] = stamp
			cur.Seqs = append(cur.Seqs, s)
			cur.Bytes += int(refs[s].Len)
		}
	}
	need := func(s int) int {
		if inPart[s] == stamp {
			return 0
		}
		return int(refs[s].Len)
	}
	// A self-comparison's sequence ships once, as addSeq stores it.
	grow := func(c workload.Comparison) int {
		if c.H == c.V {
			return need(c.H)
		}
		return need(c.H) + need(c.V)
	}

	var queue []int
	for seed := range refs {
		if off[seed] == off[seed+1] {
			continue
		}
		queue = append(queue[:0], seed)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, e := range edges[off[u]:off[u+1]] {
				ci := int(e)
				if assigned[ci] {
					continue
				}
				c := plan.At(ci)
				if cur.Bytes+grow(c) > seqBudget || len(cur.Cmps) >= maxCmps {
					if len(cur.Cmps) == 0 {
						// A single comparison larger than the
						// budget gets its own item; the batcher
						// decides feasibility.
						addSeq(c.H)
						addSeq(c.V)
						cur.Cmps = append(cur.Cmps, ci)
						cur.Cost += CostEstimate(d.ExtensionLens(c))
						assigned[ci] = true
						flush()
					}
					// Leave the edge for a later partition rooted
					// nearby; close the full partition and restart
					// the walk from this vertex, preserving the
					// pending frontier: vertices discovered earlier
					// in the walk keep their queue slots, so their
					// unassigned edges extend the next partition
					// instead of falling through to the reuse-blind
					// mop-up sweep once their seed turns have passed.
					if len(cur.Cmps) > 0 {
						flush()
						pending := queue[qi+1:]
						copy(queue[1:1+len(pending)], pending)
						queue[0] = u
						queue = queue[:1+len(pending)]
						qi = 0
					}
					continue
				}
				wasH := inPart[c.H] == stamp
				wasV := inPart[c.V] == stamp
				addSeq(c.H)
				addSeq(c.V)
				// A vertex preserved across a flush may be re-appended
				// when a new-partition edge rediscovers it (its stamp
				// reset with the flush); the extra adjacency scan is
				// redundant-but-correct (assigned[] filters it) and
				// bounded by one slot per discovery, which keeps the
				// walk's grouping — and the pinned golden schedules —
				// unchanged.
				if !wasH && c.H != u {
					queue = append(queue, c.H)
				}
				if !wasV && c.V != u {
					queue = append(queue, c.V)
				}
				cur.Cmps = append(cur.Cmps, ci)
				cur.Cost += CostEstimate(d.ExtensionLens(c))
				assigned[ci] = true
			}
		}
	}
	flush()
	// Mop-up: edges skipped at a partition boundary whose endpoints were
	// both consumed by earlier walks never reappear on the frontier;
	// sweep them into fresh partitions so every comparison is scheduled
	// exactly once.
	for ci := range assigned {
		if assigned[ci] {
			continue
		}
		c := plan.At(ci)
		if (cur.Bytes+grow(c) > seqBudget || len(cur.Cmps) >= maxCmps) && len(cur.Cmps) > 0 {
			flush()
		}
		addSeq(c.H)
		addSeq(c.V)
		cur.Cmps = append(cur.Cmps, ci)
		cur.Cost += CostEstimate(d.ExtensionLens(c))
		assigned[ci] = true
	}
	flush()
	return items
}

// sameItems fails the test unless BuildItems matches the rescanning walk
// on d under opt, field for field.
func sameItems(tb testing.TB, d *workload.Dataset, opt Options) {
	tb.Helper()
	got, want := BuildItems(d, opt), buildItemsRescan(d, opt)
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				tb.Fatalf("%+v: item %d is %+v, the rescanning walk's %+v", opt, i, got[i], want[i])
			}
		}
		tb.Fatalf("%+v: %d items, the rescanning walk made %d", opt, len(got), len(want))
	}
}

// TestBuildItemsMatchesRescan holds the cursor walk to the rescanning one
// on the random graphs of TestBuildItemsCoverageFuzz under every spread
// cap, with and without reuse, and on the shortread_plan shape at a
// tight, a middle and the derived budget.
func TestBuildItemsMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		d := randomGraph(rng)
		budget := 100 + rng.Intn(3001)
		for _, maxCmps := range []int{0, 1, 3, 10, 58} {
			for _, reuse := range []bool{true, false} {
				sameItems(t, d, Options{SeqBudget: budget, Reuse: reuse, MaxCmps: maxCmps})
			}
		}
	}
	d, _, cfg := shortReadItems(t, 8_000)
	derived := mustBudget(t, d, cfg, platform.GC200)
	maxCmps := (len(d.Comparisons) + 184*3 - 1) / (184 * 3)
	for _, budget := range []int{2_000, 20_000, derived} {
		sameItems(t, d, Options{SeqBudget: budget, Reuse: true, MaxCmps: maxCmps})
	}
}

// TestPlannerMatchesItemOrderPricing: the planner's own stages give
// DeriveSeqBudget's budget, BuildItems' items and MakeBatchesFanout's
// batches, priced as the references price them, on the shortread_plan
// shape and on long reads with traceback.
func TestPlannerMatchesItemOrderPricing(t *testing.T) {
	short, _, shortCfg := shortReadItems(t, 8_000)
	traced := testKernelCfg()
	traced.Traceback = true
	for _, c := range []struct {
		name string
		d    *workload.Dataset
		cfg  ipukernel.Config
	}{
		{"short", short, shortCfg},
		{"long-traced", readsData(t, 11), traced},
	} {
		budget := mustBudget(t, c.d, c.cfg, platform.GC200)
		opt := Options{SeqBudget: budget, Reuse: true, MaxCmps: (len(c.d.Comparisons) + 184*3 - 1) / (184 * 3)}
		items := BuildItems(c.d, opt)
		want := mustBatches(t, c.d, items, 184, c.cfg, platform.GC200, 64, nil)
		samePricing(t, c.d, opt, c.cfg, platform.GC200, want)
		p := NewPlanner(c.d, c.cfg, platform.GC200)
		if got, err := p.SeqBudget(); err != nil || got != budget {
			t.Fatalf("%s: planner budget %d (%v), DeriveSeqBudget's %d", c.name, got, err, budget)
		}
		p.BuildItems(opt)
		got, _, err := p.Batches(184, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the planner's %d batches differ from MakeBatchesFanout's %d", c.name, len(got), len(want))
		}
	}
}

// decodeGraph decodes a graph, a budget, a spread cap and the reuse flag
// from fuzz bytes. Byte 0 picks n = 1–32 sequences and the next n bytes
// their lengths, 27–282 bases. Four bytes then set the budget (0–4 335 B),
// the cap (0–63) and the flag; the rest, two bytes at a time, are
// comparisons, self-comparisons included. ok is false when b is too short.
func decodeGraph(b []byte) (d *workload.Dataset, opt Options, ok bool) {
	if len(b) < 5 {
		return nil, opt, false
	}
	n := 1 + int(b[0])%32
	b = b[1:]
	if len(b) < n+4 {
		return nil, opt, false
	}
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = make([]byte, 27+int(b[i]))
	}
	b = b[n:]
	opt = Options{
		SeqBudget: int(b[0])<<4 + int(b[1]),
		MaxCmps:   int(b[2] % 64),
		Reuse:     b[3]&1 == 0,
	}
	b = b[4:]
	var cmps []workload.Comparison
	for ; len(b) >= 2 && len(cmps) < 512; b = b[2:] {
		cmps = append(cmps, workload.Comparison{
			H: int(b[0]) % n, V: int(b[1]) % n, SeedH: 5, SeedV: 5, SeedLen: 17,
		})
	}
	return workload.MustPack("", seqs, cmps, false), opt, true
}

// FuzzBuildItems holds BuildItems to the rescanning walk on decodeGraph's
// graphs and options.
func FuzzBuildItems(f *testing.F) {
	f.Add([]byte{3, 100, 120, 140, 0x10, 0x01, 3, 1, 0, 1, 1, 2, 2, 0, 0, 0})
	f.Add([]byte{7, 30, 60, 90, 120, 150, 180, 210, 0x04, 0x00, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 2, 4, 6})
	// Eight 75-byte sequences, a 816-byte budget and two comparisons an
	// item, over edges 0–0, 7–4, 7–7, 7–5 and 0–4: a flush at vertex 7
	// leaves one of its edges for a later partition, and a cursor that
	// stepped over it would group the items unlike the rescanning walk.
	f.Add([]byte{39, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 66, 48, 48, 48, 55, 36, 55, 55, 55, 37, 48, 36})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, opt, ok := decodeGraph(b)
		if !ok {
			return
		}
		sameItems(t, d, opt)
		coverage(t, d, BuildItems(d, opt))
		samePricing(t, d, opt, testKernelCfg(), platform.GC200, nil)
	})
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
// extensions.
func TestTracebackBudgetAdmitsWithinSRAM(t *testing.T) {
	d := readsData(t, 11)
	cfg := testKernelCfg()
	cfg.Traceback = true
	budget := mustBudget(t, d, cfg, platform.GC200)
	// MaxCmps mirrors the driver's spread cap: it also keeps the
	// per-item tuple/result overhead inside the budget allowance.
	items := BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: 64})
	batches := mustBatches(t, d, items, 8, cfg, platform.GC200, 0, nil)
	for _, b := range batches {
		allowance := 0
		for ti := range b.Tiles {
			tw := &b.Tiles[ti]
			if mem := cfg.TileMemoryBytes(tw, platform.GC200); mem > platform.GC200.DataSRAM() {
				t.Fatalf("admitted tile needs %d B of the %d B SRAM", mem, platform.GC200.DataSRAM())
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
		res, err := ipukernel.Run(ipu.New(ipu.Config{Model: platform.GC200}), b.Bound(slabViews(arena)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakTracebackBytes == 0 {
			t.Fatal("traceback run recorded no trace bytes")
		}
		if res.PeakTracebackBytes > allowance {
			t.Fatalf("peak trace %d B exceeds modeled arena allowance %d B", res.PeakTracebackBytes, allowance)
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

// cmpMaxMin and cmpTraceCharges are the oracle's own reading of a
// comparison's SRAM geometry from the arena spans, kept apart from
// ipukernel.Charge so the scan does not share the code it checks.
// cmpMaxMin is the larger of the two min-side extension lengths of c.
func cmpMaxMin(refs []workload.SeqRef, c workload.Comparison) int {
	rh := int(refs[c.H].Len) - c.SeedH - c.SeedLen
	rv := int(refs[c.V].Len) - c.SeedV - c.SeedLen
	return max(min(c.SeedH, c.SeedV), min(rh, rv))
}

// cmpTraceCharges is the larger of the two extensions' direction-trace
// allowances in each of the fused (per-thread) and replay (shared) pools.
func cmpTraceCharges(refs []workload.SeqRef, c workload.Comparison, cfg ipukernel.Config) (fused, replay int) {
	rh := int(refs[c.H].Len) - c.SeedH - c.SeedLen
	rv := int(refs[c.V].Len) - c.SeedV - c.SeedLen
	lf, lr := cfg.TraceCharges(c.SeedH, c.SeedV)
	rf, rr := cfg.TraceCharges(rh, rv)
	return max(lf, rf), max(lr, rr)
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
			GlobalID: int32(ci),
		}
		if fanout != nil {
			job.Fanout = fanout[ci]
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

// FuzzMakeBatches holds the batcher to the all-tiles scan on fuzzed
// graphs. Four bytes pick 1–8 tiles, a job cap of 0–8 (0 = none), the
// traceback flag and the dedup fan-out (nil, or 1–4 per comparison), and
// 16–143 KiB of tile data SRAM; the rest is decodeGraph's graph, whose
// items are batched. Every tile the batcher admits must fit its SRAM.
func FuzzMakeBatches(f *testing.F) {
	f.Add([]byte{3, 2, 0x04, 40, 3, 100, 120, 140, 0x10, 0x01, 3, 1, 0, 1, 1, 2, 2, 0, 0, 0})
	f.Add([]byte{1, 0, 0x01, 0, 7, 30, 60, 90, 120, 150, 180, 210, 0x04, 0x00, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 2, 4, 6})
	f.Add([]byte{7, 8, 0x07, 200, 5, 250, 40, 180, 90, 255, 0x00, 0x80, 5, 1, 0, 1, 1, 2, 2, 3, 3, 4, 0, 2, 1, 3, 2, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		tiles, maxJobs := 1+int(b[0])%8, int(b[1])%9
		cfg := testKernelCfg()
		cfg.Traceback = b[2]&1 == 1
		model := platform.GC200
		model.SRAMPerTile = model.CodeReserve + (16+int(b[3])%128)<<10
		d, opt, ok := decodeGraph(b[4:])
		if !ok {
			return
		}
		var fanout []int32
		if k := int(b[2]>>1) % 5; k > 0 {
			fanout = make([]int32, len(d.Comparisons))
			for ci := range fanout {
				fanout[ci] = int32(1 + (ci+k)%4)
			}
		}
		items := BuildItems(d, opt)
		want, wantErr := makeBatchesExhaustiveScan(d, items, tiles, cfg, model, maxJobs, fanout)
		got, gotErr := MakeBatchesFanout(d, items, tiles, cfg, model, maxJobs, fanout)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error %v, exhaustive scan %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d batches differ from the exhaustive scan's %d", len(got), len(want))
		}
		samePricing(t, d, opt, cfg, model, got)
		for bi, batch := range got {
			for ti := range batch.Tiles {
				if mem := cfg.TileMemoryBytes(&batch.Tiles[ti], model); mem > model.DataSRAM() {
					t.Fatalf("batch %d tile %d needs %d B of the %d B SRAM", bi, ti, mem, model.DataSRAM())
				}
			}
		}
	})
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

func BenchmarkBuildItems(b *testing.B) {
	d, _, cfg := shortReadItems(b, 32_000)
	budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{SeqBudget: budget, Reuse: true, MaxCmps: (len(d.Comparisons) + 184*3 - 1) / (184 * 3)}
	b.ReportAllocs()
	for b.Loop() {
		BuildItems(d, opt)
	}
}

// slabViews returns resident views of every slab of a's spine.
func slabViews(a *workload.Arena) [][]byte {
	views := make([][]byte, a.NumSlabs())
	for i := range views {
		views[i] = a.SlabView(i)
	}
	return views
}
