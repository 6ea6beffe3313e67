// Package partition implements the host-side work organisation of §4.2 and
// §4.3: interpreting the planned comparisons as a graph over sequences,
// greedily partitioning that graph so tiles can reuse sequences across
// comparisons (cutting host→device traffic), and k-partitioning the
// resulting items across tiles into load-balanced, SRAM-feasible batches.
package partition

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Item is one indivisible group of comparisons destined for a single tile:
// either a graph partition (with its unique sequence set ω_i) or a single
// comparison when reuse is disabled.
type Item struct {
	// Seqs lists the global sequence indices the item needs (unique).
	Seqs []int
	// Cmps lists comparison indices into the dataset.
	Cmps []int
	// Bytes is the sequence payload (what the item costs to transfer):
	// the arena's exact span lengths summed over Seqs. The batcher prices
	// the item from it without walking Seqs.
	Bytes int
	// Cost is the §4.2 runtime estimate: quadratic in the extension
	// lengths, summed over the item's comparisons.
	Cost float64
	// Copies marks single-comparison items that carry private sequence
	// copies: without the graph interpretation the host has no
	// relationship information, so tiles store and receive duplicates
	// (the state of the art the paper improves on, §4.3).
	Copies bool
}

// CostEstimate returns the batching cost estimate for one comparison. The
// paper uses the maximum running time, quadratic in the sequence lengths
// (§4.2): the left and right extension rectangles.
func CostEstimate(d *workload.Dataset, c workload.Comparison) float64 {
	lh, lv, rh, rv := d.ExtensionLens(c)
	return float64(lh)*float64(lv) + float64(rh)*float64(rv)
}

// Options configures item construction.
type Options struct {
	// SeqBudget caps a partition's sequence payload in bytes.
	SeqBudget int
	// Reuse enables the §4.3 graph partitioning; off, every comparison
	// becomes its own item (the "Singlecomparison" mode of Fig. 7).
	Reuse bool
	// MaxCmps caps comparisons per partition (0 = unlimited). The
	// driver sets it so small workloads still spread across all tiles
	// instead of pooling on a few; large workloads are unaffected.
	MaxCmps int
}

// BuildItems turns a dataset into schedulable items using the paper's
// greedy edge-list walk (§4.3): adjacent vertices join the open partition
// until the next vertex would exceed the sequence budget, then a new
// partition starts.
func BuildItems(d *workload.Dataset, opt Options) []Item {
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
				Cost:   CostEstimate(d, c),
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
				grow := need(c.H) + need(c.V)
				if cur.Bytes+grow > seqBudget || len(cur.Cmps) >= maxCmps {
					if len(cur.Cmps) == 0 {
						// A single comparison larger than the
						// budget gets its own item; the batcher
						// decides feasibility.
						addSeq(c.H)
						addSeq(c.V)
						cur.Cmps = append(cur.Cmps, ci)
						cur.Cost += CostEstimate(d, c)
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
				cur.Cost += CostEstimate(d, c)
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
		grow := need(c.H) + need(c.V)
		if (cur.Bytes+grow > seqBudget || len(cur.Cmps) >= maxCmps) && len(cur.Cmps) > 0 {
			flush()
		}
		addSeq(c.H)
		addSeq(c.V)
		cur.Cmps = append(cur.Cmps, ci)
		cur.Cost += CostEstimate(d, c)
		assigned[ci] = true
	}
	flush()
	return items
}

// ReuseFactor reports the transfer saving of a set of items: the ratio of
// naive per-comparison sequence bytes to the bytes the items actually
// carry. 1.0 means no reuse; 2.0 means each transferred sequence serves
// two comparisons on average.
func ReuseFactor(d *workload.Dataset, items []Item) float64 {
	arena, plan := d.Spine()
	refs := arena.Refs()
	var naive, actual int64
	for _, it := range items {
		actual += int64(it.Bytes)
		for _, ci := range it.Cmps {
			naive += int64(refs[plan.H[ci]].Len) + int64(refs[plan.V[ci]].Len)
		}
	}
	if actual == 0 {
		return 1
	}
	return float64(naive) / float64(actual)
}

// MaxMinExtension returns the largest min-side extension length over the
// dataset's comparisons — the δ that sizes unbounded DP buffers.
func MaxMinExtension(d *workload.Dataset) int {
	arena, plan := d.Spine()
	refs := arena.Refs()
	mm := 0
	for ci := 0; ci < plan.Len(); ci++ {
		if v := cmpMaxMin(refs, plan.At(ci)); v > mm {
			mm = v
		}
	}
	return mm
}

// traceAllowances returns the per-tile trace-arena allowances the kernel
// SRAM model charges for the dataset's worst single extension in each
// recording pool — fused (charged once per thread) and replay (one
// shared serialized arena) — both zero with traceback off. Kept in
// lockstep with TileMemoryBytes so a budget derived here always admits
// tiles the gate accepts.
func traceAllowances(d *workload.Dataset, cfg ipukernel.Config) (fused, replay int) {
	if !cfg.Traceback {
		return 0, 0
	}
	arena, plan := d.Spine()
	refs := arena.Refs()
	for ci := 0; ci < plan.Len(); ci++ {
		f, r := cmpTraceCharges(refs, plan.At(ci), cfg)
		fused = max(fused, f)
		replay = max(replay, r)
	}
	return fused, replay
}

// DeriveSeqBudget computes the per-partition sequence budget for a dataset
// under a kernel configuration: tile SRAM minus the thread work buffers
// the configured algorithm and kernel tier need for the dataset's largest
// extension, minus (with traceback on) the shared trace-arena allowance
// for the worst extension, minus a small allowance for tuples and
// results. It fails when the per-tile buffers alone exceed tile SRAM —
// which is precisely what happens to the unrestricted algorithms on long
// reads (§3) and what δb fixes.
func DeriveSeqBudget(d *workload.Dataset, cfg ipukernel.Config, model platform.IPUModel) (int, error) {
	threads := cfg.Threads
	if threads <= 0 || threads > model.ThreadsPerTile {
		threads = model.ThreadsPerTile
	}
	const allowance = 8 * 1024
	fusedA, replayA := traceAllowances(d, cfg)
	bufs := threads*cfg.WorkBufBytesPerThread(MaxMinExtension(d)) +
		threads*fusedA + replayA
	budget := model.DataSRAM() - bufs - allowance
	if budget <= 0 {
		return 0, fmt.Errorf(
			"partition: %v work buffers need %d B of the %d B tile SRAM; use the memory-restricted algorithm or a smaller δb",
			cfg.Params.Algo, bufs, model.DataSRAM())
	}
	return budget, nil
}

// admission is the tile-independent part of an item's SRAM check: the
// largest min-side extension and the largest fused/replay trace charges
// over its comparisons. Computed once per item; a tile's running maxima
// have the same shape.
type admission struct {
	maxMin, fused, replay int
}

func (a admission) with(b admission) admission {
	return admission{max(a.maxMin, b.maxMin), max(a.fused, b.fused), max(a.replay, b.replay)}
}

// admissionOf reads the item's comparisons from the same source add()
// does: admission and placement must agree on seed geometry.
func admissionOf(refs []workload.SeqRef, plan *workload.Plan, it *Item, cfg ipukernel.Config) admission {
	var a admission
	for _, ci := range it.Cmps {
		c := plan.At(ci)
		f, r := cmpTraceCharges(refs, c, cfg)
		a = a.with(admission{cmpMaxMin(refs, c), f, r})
	}
	return a
}

// tileBuilder incrementally assembles one tile's work while tracking the
// SRAM formula of the kernel configuration. Tiles reference the dataset's
// shared arena spine: adding a sequence appends its span, never its
// bytes. The tile's slab table stays nil — the driver binds it per
// execution attempt from the arena's pinned slab set (Batch.Bound), so
// building batches never forces spilled slabs resident.
type tileBuilder struct {
	work     ipukernel.TileWork
	localIdx map[int]int
	index    int // tile position within the batch
	load     float64
	seqBytes int
	adm      admission // running maxima over the placed items
}

// reset returns the builder to the empty state for the next batch,
// keeping only its local-index map's storage; the work it built now
// belongs to the closed batch.
func (tb *tileBuilder) reset() {
	clear(tb.localIdx)
	*tb = tileBuilder{localIdx: tb.localIdx, index: tb.index}
}

// memoryWith is the tile's SRAM need with it added. Item.Bytes is the sum
// over Item.Seqs, so only sequences the tile already holds need a lookup
// — none on an empty tile or for an item carrying private copies.
func (tb *tileBuilder) memoryWith(refs []workload.SeqRef, it *Item, adm admission, cfg ipukernel.Config, threads int) int {
	seqBytes, nSeqs := tb.seqBytes+it.Bytes, len(tb.work.Seqs)+len(it.Seqs)
	if !it.Copies && len(tb.localIdx) > 0 {
		for _, s := range it.Seqs {
			if _, ok := tb.localIdx[s]; ok {
				seqBytes -= int(refs[s].Len)
				nSeqs--
			}
		}
	}
	nJobs := len(tb.work.Jobs) + len(it.Cmps)
	adm = adm.with(tb.adm)
	return cfg.TileFootprint(seqBytes, nSeqs, nJobs, adm.maxMin, adm.fused, adm.replay, threads)
}

// cmpMaxMin computes the larger of the two min-side extension lengths of
// c from the arena spans — the same source the byte budgets use, so SRAM
// admission and placement can never disagree with the slab the kernel
// actually executes.
func cmpMaxMin(refs []workload.SeqRef, c workload.Comparison) int {
	rh := int(refs[c.H].Len) - c.SeedH - c.SeedLen
	rv := int(refs[c.V].Len) - c.SeedV - c.SeedLen
	return max(min(c.SeedH, c.SeedV), min(rh, rv))
}

// cmpTraceCharges is the traceback analogue of cmpMaxMin: the larger of
// the two extensions' direction-trace allowances under the kernel's
// bound, split into the fused (per-thread) and replay (shared) pools the
// way the kernel would record each side (both zero with traceback off).
func cmpTraceCharges(refs []workload.SeqRef, c workload.Comparison, cfg ipukernel.Config) (fused, replay int) {
	rh := int(refs[c.H].Len) - c.SeedH - c.SeedLen
	rv := int(refs[c.V].Len) - c.SeedV - c.SeedLen
	lf, lr := cfg.TraceCharges(c.SeedH, c.SeedV)
	rf, rr := cfg.TraceCharges(rh, rv)
	return max(lf, rf), max(lr, rr)
}

func (tb *tileBuilder) add(refs []workload.SeqRef, plan *workload.Plan, it *Item, adm admission, fanout []int32) {
	if tb.work.Jobs == nil {
		tb.work.Seqs = make([]workload.SeqRef, 0, len(it.Seqs))
		tb.work.Jobs = make([]ipukernel.SeedJob, 0, len(it.Cmps))
	}
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
	}
	tb.adm = tb.adm.with(adm)
	tb.load += it.Cost
}

// candidates is a batch's placement frontier as a container/heap ordered
// by (load, index): the tiles that hold work plus one empty tile.
type candidates []*tileBuilder

func (c candidates) Len() int { return len(c) }
func (c candidates) Less(i, j int) bool {
	return c[i].load < c[j].load || c[i].load == c[j].load && c[i].index < c[j].index
}
func (c candidates) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *candidates) Push(x any)   { *c = append(*c, x.(*tileBuilder)) }
func (c *candidates) Pop() any {
	old := *c
	tb := old[len(old)-1]
	*c = old[:len(old)-1]
	return tb
}

// MakeBatchesFanout distributes items across tiles into BSP batches:
// items are placed largest-cost-first onto the least-loaded tile of the
// open batch that still has the SRAM for them (longest-processing-time
// k-partitioning under the §4.2 quadratic estimate); when no tile fits,
// the batch closes. maxJobs caps the jobs per batch (0 = no cap): finer
// batches keep the multi-IPU work queue deep enough for the driver to
// scale and prefetch (§4.4). fanout[ci] is the number of planned
// comparisons that comparison ci represents after duplicate-extension
// elimination (nil = every comparison stands for itself); the counts ride
// along on the tile jobs so the kernel can account the work dedup skipped.
//
// "Least-loaded tile that fits, lowest index on ties" is evaluated without
// visiting every tile. All empty tiles of a batch are interchangeable
// (same fit verdict, load 0), so the lowest-indexed one beats the rest on
// the tie-break and the tiles holding work are always the index prefix
// [0, used). The candidates are therefore those used tiles plus tile
// `used` as the one empty representative, kept in (load, index) order;
// the first that fits is the argmin over all tiles. Cost per item is
// O(|item|) plus O(log used) per tile tried, independent of `tiles`.
func MakeBatchesFanout(d *workload.Dataset, items []Item, tiles int, cfg ipukernel.Config, model platform.IPUModel, maxJobs int, fanout []int32) ([]*ipukernel.Batch, error) {
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
	// pool[i] builds tile i of every batch; entries are created the first
	// time a batch reaches that many tiles and reset when it closes.
	var pool []*tileBuilder
	builder := func(i int) *tileBuilder {
		if i == len(pool) {
			pool = append(pool, &tileBuilder{localIdx: make(map[int]int), index: i})
		}
		return pool[i]
	}
	used, batchJobs := 0, 0
	cand := candidates{builder(0)}
	var full []*tileBuilder // candidates the current item does not fit

	closeBatch := func() {
		b := &ipukernel.Batch{Tiles: make([]ipukernel.TileWork, 0, used)}
		for _, tb := range pool[:used] {
			if len(tb.work.Jobs) > 0 {
				b.Tiles = append(b.Tiles, tb.work)
			}
			tb.reset()
		}
		if len(b.Tiles) > 0 {
			batches = append(batches, b)
		}
		used, batchJobs = 0, 0
		cand = append(cand[:0], pool[0])
	}

	for _, idx := range order {
		it := &items[idx]
		adm := admissionOf(refs, plan, it, cfg)
		placed := false
		for attempt := 0; attempt < 2 && !placed; attempt++ {
			if batchJobs+len(it.Cmps) > maxJobs && batchJobs > 0 {
				closeBatch()
			}
			full = full[:0]
			for len(cand) > 0 && cand[0].memoryWith(refs, it, adm, cfg, threads) > budget {
				full = append(full, heap.Pop(&cand).(*tileBuilder))
			}
			if len(cand) == 0 {
				// No room anywhere: start a fresh batch and retry once.
				closeBatch()
				continue
			}
			tb := cand[0]
			tb.add(refs, plan, it, adm, fanout)
			heap.Fix(&cand, 0)
			if tb.index == used {
				if used++; used < tiles {
					heap.Push(&cand, builder(used))
				}
			}
			for _, f := range full {
				heap.Push(&cand, f)
			}
			batchJobs += len(it.Cmps)
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("partition: item with %d comparisons (%d B of sequences) cannot fit an empty tile; reduce δb or split the item",
				len(it.Cmps), it.Bytes)
		}
	}
	closeBatch()
	return batches, nil
}
