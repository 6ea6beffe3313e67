// Package partition implements the host-side work organisation of §4.2 and
// §4.3: interpreting the planned comparisons as a graph over sequences,
// greedily partitioning that graph so tiles can reuse sequences across
// comparisons (cutting host→device traffic), and k-partitioning the
// resulting items across tiles into load-balanced, SRAM-feasible batches.
package partition

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

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

// CostEstimate returns the batching cost estimate for one comparison whose
// left extension spans lh×lv and right extension rh×rv. The paper uses
// the maximum running time, quadratic in the sequence lengths (§4.2): the
// left and right extension rectangles.
func CostEstimate(lh, lv, rh, rv int) float64 {
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

// Planner plans one dataset's comparisons for one kernel configuration:
// the sequence budget, the §4.3 items and the §4.2 batches, in that order.
// SeqBudget folds every comparison's Charge in row order. The walk reads
// a comparison's geometry where it takes the row into an item: it adds
// the row's cost to the item in the walk's order, so an item's Cost is
// the same float64 it always was, and folds the row's Charge into the
// item's (Charge.With is a max, so the order does not matter) for the
// batcher, which then reads no row's geometry again. The planner keeps no
// per-row state, and nothing of it outlives the plan but the batches.
type Planner struct {
	plan  *workload.Plan
	refs  []workload.SeqRef
	cfg   ipukernel.Config
	model platform.IPUModel

	items   []Item
	charges []ipukernel.Charge // items[i]'s rows' Charges, folded
	naive   int64              // the rows' single-comparison bytes, summed
}

// NewPlanner plans d's comparisons under cfg on model.
func NewPlanner(d *workload.Dataset, cfg ipukernel.Config, model platform.IPUModel) *Planner {
	arena, plan := d.Spine()
	return &Planner{plan: plan, refs: arena.Refs(), cfg: cfg, model: model}
}

// SeqBudget computes the per-partition sequence budget: tile SRAM minus
// the buffers the fold of every comparison's Charge claims (thread work
// buffers for the largest extension under the configured algorithm,
// plus, with traceback on, the trace arenas of the worst extensions),
// minus a small allowance for tuples and results. It fails when those
// buffers alone exceed tile SRAM — which is precisely what happens to the
// unrestricted algorithms on long reads (§3) and what δb fixes.
func (p *Planner) SeqBudget() (int, error) {
	const allowance = 8 * 1024
	var fold ipukernel.Charge
	for ci := range p.plan.Len() {
		fold = fold.With(p.cfg.ExtensionCharge(p.plan.ExtensionLens(p.refs, ci)))
	}
	bufs := p.cfg.BufferBytes(fold, p.model)
	budget := p.model.DataSRAM() - bufs - allowance
	if budget <= 0 {
		return 0, fmt.Errorf(
			"partition: %v work buffers need %d B of the %d B tile SRAM; use the memory-restricted algorithm or a smaller δb",
			p.cfg.Params.Algo, bufs, p.model.DataSRAM())
	}
	return budget, nil
}

// Batches distributes the items across tiles (see MakeBatchesFanout).
// cheapest is the index of the batch whose items' §4.2 estimates sum
// least, the lowest index on ties (0 with no batches).
func (p *Planner) Batches(tiles, maxJobs int, fanout []int32) (batches []*ipukernel.Batch, cheapest int, err error) {
	return batch(p.plan, p.refs, p.items, p.charges, tiles, &p.cfg, p.model, maxJobs, fanout)
}

// ReuseFactor reports the items' transfer saving: the ratio of naive
// per-comparison sequence bytes to the bytes the items actually carry.
// 1.0 means no reuse; 2.0 means each transferred sequence serves two
// comparisons on average. A comparison's naive bytes are what its
// single-comparison item ships: a self-comparison's sequence once. Every
// comparison lands in exactly one item, so the naive bytes are the sum
// the walk kept as it took the rows.
func (p *Planner) ReuseFactor() float64 {
	var actual int64
	for i := range p.items {
		actual += int64(p.items[i].Bytes)
	}
	if actual == 0 {
		return 1
	}
	return float64(p.naive) / float64(actual)
}

// BuildItems turns the rows into items using the paper's greedy edge-list
// walk (§4.3): adjacent vertices join the open partition until the next
// vertex would exceed the sequence budget, then a new partition starts.
// It reads the plan's H/V columns and the arena's span lengths; no row is
// materialised. Beside each item it keeps the item's Charge, the fold of
// its rows' Charges, for Batches, and it sums the rows' single-comparison
// bytes for ReuseFactor.
func (p *Planner) BuildItems(opt Options) {
	plan, refs := p.plan, p.refs
	var items []Item
	var charges []ipukernel.Charge
	var naive int64
	n := plan.Len()
	seqBudget := opt.SeqBudget
	maxCmps := opt.MaxCmps
	if maxCmps <= 0 {
		maxCmps = n + 1
	}
	// price reads row ci's geometry, once: its cost, and its Charge
	// folded into *ch. It also counts the row's single-comparison bytes.
	price := func(ci, h, v int, ch *ipukernel.Charge) float64 {
		naive += int64(refs[h].Len)
		if v != h {
			naive += int64(refs[v].Len)
		}
		lh, lv, rh, rv := plan.ExtensionLens(refs, ci)
		*ch = ch.With(p.cfg.ExtensionCharge(lh, lv, rh, rv))
		return CostEstimate(lh, lv, rh, rv)
	}
	cmps := make([]int, n)
	if !opt.Reuse {
		// One item per comparison, its Cmps and Seqs windows of two
		// shared buffers.
		items = make([]Item, n)
		charges = make([]ipukernel.Charge, 0, n)
		seqs := make([]int, 0, 2*n)
		for ci, h := range plan.H {
			cmps[ci] = ci
			k := len(seqs)
			seqs = append(seqs, int(h))
			it := Item{Cmps: cmps[ci : ci+1 : ci+1], Bytes: int(refs[h].Len), Copies: true}
			v := plan.V[ci]
			if v != h {
				seqs = append(seqs, int(v))
				it.Bytes += int(refs[v].Len)
			}
			it.Seqs = seqs[k:len(seqs):len(seqs)]
			var ch ipukernel.Charge
			it.Cost = price(ci, int(h), int(v), &ch)
			items[ci] = it
			charges = append(charges, ch)
		}
		p.items, p.charges, p.naive = items, charges, naive
		return
	}

	// Greedy graph growing (§4.3): start from a vertex, walk through its
	// edge list adding the adjacent vertices to the partition, and keep
	// following the newly added vertices' edges until the next vertex
	// would exceed the memory budget; then start a new partition. The
	// frontier walk keeps partitions topologically local regardless of
	// the sequence numbering, which is what makes reuse high on overlap
	// graphs. The walk steers by the plan's H/V columns; the seed
	// columns are read once per comparison, where it is taken.
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

	// The spread cap makes at least ⌈n/MaxCmps⌉ items; with it set, the
	// items and their Charges start with room for that many.
	if opt.MaxCmps > 0 && n > 0 {
		k := (n + opt.MaxCmps - 1) / opt.MaxCmps
		items = make([]Item, 0, k)
		charges = make([]ipukernel.Charge, 0, k)
	}
	assigned := make([]bool, n)
	// next[v] is v's first edge slot not yet known to be assigned. assigned
	// never clears, so a scan starting past the assigned prefix of v's
	// edges skips only visits that were no-op continues: the items are
	// those of a scan from off[v]. An edge left unassigned at a flush holds
	// the cursor until a later partition takes it. On the shortread_plan
	// shape the walk makes two visits per edge slot, against eighteen when
	// every scan starts at off[v].
	next := make([]int32, len(refs))
	copy(next, off)
	advance := func(v int) []int32 {
		i, end := next[v], off[v+1]
		for i < end && assigned[edges[i]] {
			i++
		}
		next[v] = i
		return edges[i:end]
	}
	// inPart[v] is the stamp of the open partition holding v (stamps
	// start at 1, so a fresh table holds nothing).
	inPart := make([]int32, len(refs))
	// The items' Cmps and Seqs are windows of two shared buffers, cut at
	// each flush. Every comparison lands in exactly one item, so the open
	// item's Cmps appends in place into what the closed ones left free.
	freeCmps := cmps
	seqs := make([]int, 0, n)
	cur, seqStart := Item{Cmps: freeCmps[:0]}, 0
	var curCharge ipukernel.Charge
	stamp := int32(1)

	flush := func() {
		if n := len(cur.Cmps); n > 0 {
			cur.Cmps = cur.Cmps[:n:n]
			freeCmps = freeCmps[n:]
			cur.Seqs = seqs[seqStart:len(seqs):len(seqs)]
			seqStart = len(seqs)
			items = append(items, cur)
			charges = append(charges, curCharge)
		}
		cur, curCharge = Item{Cmps: freeCmps[:0]}, ipukernel.Charge{}
		stamp++
	}
	addSeq := func(v int) {
		if inPart[v] != stamp {
			inPart[v] = stamp
			seqs = append(seqs, v)
			cur.Bytes += int(refs[v].Len)
		}
	}
	// take puts comparison ci, (h, v), in the open partition.
	take := func(ci, h, v int) {
		addSeq(h)
		addSeq(v)
		cur.Cmps = append(cur.Cmps, ci)
		cur.Cost += price(ci, h, v, &curCharge)
		assigned[ci] = true
	}
	need := func(v int) int {
		if inPart[v] == stamp {
			return 0
		}
		return int(refs[v].Len)
	}
	// grow is what comparison (h, v) adds to the open partition's bytes:
	// a self-comparison's sequence ships once, as addSeq stores it.
	grow := func(h, v int) int {
		if h == v {
			return need(h)
		}
		return need(h) + need(v)
	}

	var queue []int
	for seed := range refs {
		if len(advance(seed)) == 0 {
			continue
		}
		queue = append(queue[:0], seed)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, e := range advance(u) {
				ci := int(e)
				if assigned[ci] {
					continue
				}
				h, v := int(plan.H[ci]), int(plan.V[ci])
				if cur.Bytes+grow(h, v) > seqBudget || len(cur.Cmps) >= maxCmps {
					if len(cur.Cmps) == 0 {
						// A single comparison larger than the
						// budget gets its own item; the batcher
						// decides feasibility.
						take(ci, h, v)
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
					// queue[qi] is u with the frontier after it, so
					// the walk resumes in place; the consumed prefix
					// is dropped once it outweighs the rest.
					if len(cur.Cmps) > 0 {
						flush()
						if 2*qi > len(queue) {
							queue = queue[:copy(queue, queue[qi:])]
							qi = 0
						}
					}
					continue
				}
				wasH := inPart[h] == stamp
				wasV := inPart[v] == stamp
				take(ci, h, v)
				// A vertex preserved across a flush may be re-appended
				// when a new-partition edge rediscovers it (its stamp
				// reset with the flush); the extra adjacency scan is
				// redundant-but-correct (assigned[] filters it) and
				// bounded by one slot per discovery, which keeps the
				// walk's grouping — and the pinned golden schedules —
				// unchanged.
				if !wasH && h != u {
					queue = append(queue, h)
				}
				if !wasV && v != u {
					queue = append(queue, v)
				}
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
		h, v := int(plan.H[ci]), int(plan.V[ci])
		if (cur.Bytes+grow(h, v) > seqBudget || len(cur.Cmps) >= maxCmps) && len(cur.Cmps) > 0 {
			flush()
		}
		take(ci, h, v)
	}
	flush()
	p.items, p.charges, p.naive = items, charges, naive
}

// seqIndex maps the global ids of the sequences a tile holds to their
// positions in the tile: open addressing with linear probing over a
// power-of-two table kept at most half full. Its size follows the most
// sequences the tile has held, not the dataset's sequence count, and
// clear keeps the table for the next batch.
type seqIndex struct {
	slots []seqSlot
	n     int
}

// seqSlot holds a global id plus one (zero marks a free slot) and the
// sequence's tile-local position.
type seqSlot struct{ key, local int32 }

// slot returns the index of s's slot, or of the free slot where s would go.
func (x *seqIndex) slot(s int) int {
	mask := len(x.slots) - 1
	key := int32(s) + 1
	// Fibonacci hashing, its high bits scaled onto the table.
	h := uint64(uint32(key) * 0x9E3779B9)
	for i := int(h * uint64(len(x.slots)) >> 32); ; i = (i + 1) & mask {
		if k := x.slots[i].key; k == key || k == 0 {
			return i
		}
	}
}

// get returns s's tile-local position.
func (x *seqIndex) get(s int) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	sl := x.slots[x.slot(s)]
	return int(sl.local), sl.key != 0
}

// set records s at tile-local position local, replacing any earlier one.
func (x *seqIndex) set(s, local int) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots, x.n = make([]seqSlot, max(16, 2*len(old))), 0
		for _, sl := range old {
			if sl.key != 0 {
				x.set(int(sl.key-1), int(sl.local))
			}
		}
	}
	i := x.slot(s)
	if x.slots[i].key == 0 {
		x.n++
	}
	x.slots[i] = seqSlot{int32(s) + 1, int32(local)}
}

func (x *seqIndex) clear() {
	clear(x.slots)
	x.n = 0
}

// tileBuilder incrementally assembles one tile's work while tracking the
// SRAM formula of the kernel configuration. Tiles reference the dataset's
// shared arena spine: adding a sequence appends its span, never its
// bytes. The builder keeps the tile's sequence spans and jobs in storage
// it reuses from batch to batch; emit writes the tile's work once, when
// its batch closes. The tile's slab table stays nil — the driver binds it
// per execution attempt from the arena's pinned slab set (Batch.Bound),
// so building batches never forces spilled slabs resident.
//
// The global id → tile-local index is built lazily. A tile's first item's
// Seqs are the tile's sequences, in order, so its comparisons' local
// indices are their sequences' positions in those Seqs; only a second
// item, which may share sequences with the first, needs the index, which
// is then built from the first item's Seqs.
type tileBuilder struct {
	localIdx seqIndex
	indexed  bool              // localIdx holds the tile's sequences
	first    []int             // the first item's Seqs, while localIdx is unbuilt
	seqs     []workload.SeqRef // the tile's sequence set, in local order
	jobs     []placedJob       // the tile's comparisons, in job order
	index    int               // tile position within the batch
	load     float64
	seqBytes int
	charge   ipukernel.Charge // fold over the placed items
}

// placedJob is one comparison placed on a tile, in the plan's int32
// columns' width; emit widens it into an ipukernel.SeedJob.
type placedJob struct{ hLocal, vLocal, seedH, seedV, seedLen, ci int32 }

// reset returns the builder to the empty state for the next batch,
// keeping its storage; the work it emitted belongs to the closed batch.
func (tb *tileBuilder) reset() {
	if tb.indexed {
		tb.localIdx.clear()
	}
	*tb = tileBuilder{localIdx: tb.localIdx, seqs: tb.seqs[:0], jobs: tb.jobs[:0], index: tb.index}
}

// indexSeqs builds the tile's local index unless it is built: until then
// the tile holds at most its first item, whose Seqs are its local order.
func (tb *tileBuilder) indexSeqs() {
	if tb.indexed {
		return
	}
	for k, s := range tb.first {
		tb.localIdx.set(s, k)
	}
	tb.indexed, tb.first = true, nil
}

// memoryWith is the tile's SRAM need with it, whose Charge is ch, added.
// Item.Bytes is the sum over Item.Seqs, so only sequences the tile
// already holds need a lookup — none on an empty tile or for an item
// carrying private copies.
func (tb *tileBuilder) memoryWith(refs []workload.SeqRef, it *Item, ch ipukernel.Charge, cfg *ipukernel.Config, model platform.IPUModel) int {
	seqBytes, nSeqs := tb.seqBytes+it.Bytes, len(tb.seqs)+len(it.Seqs)
	if !it.Copies && len(tb.seqs) > 0 {
		tb.indexSeqs()
		for _, s := range it.Seqs {
			if _, ok := tb.localIdx.get(s); ok {
				seqBytes -= int(refs[s].Len)
				nSeqs--
			}
		}
	}
	nJobs := len(tb.jobs) + len(it.Cmps)
	return cfg.TileFootprint(seqBytes, nSeqs, nJobs, ch.With(tb.charge), model)
}

// add places it, whose Charge is ch, on the tile. pos is a table over
// the dataset's sequences that the first item on a tile writes its Seqs'
// positions into and reads its comparisons' local indices from.
func (tb *tileBuilder) add(refs []workload.SeqRef, plan *workload.Plan, it *Item, pos []int32, ch ipukernel.Charge) {
	if len(tb.jobs) == 0 {
		tb.first = it.Seqs
		for k, s := range it.Seqs {
			pos[s] = int32(k)
			tb.seqs = append(tb.seqs, refs[s])
			tb.seqBytes += int(refs[s].Len)
		}
		for _, ci := range it.Cmps {
			tb.jobs = append(tb.jobs, placedJob{pos[plan.H[ci]], pos[plan.V[ci]], plan.SeedH[ci], plan.SeedV[ci], plan.SeedLen[ci], int32(ci)})
		}
	} else {
		tb.indexSeqs()
		for _, s := range it.Seqs {
			if _, ok := tb.localIdx.get(s); !ok || it.Copies {
				tb.localIdx.set(s, len(tb.seqs))
				tb.seqs = append(tb.seqs, refs[s])
				tb.seqBytes += int(refs[s].Len)
			}
		}
		for _, ci := range it.Cmps {
			h, _ := tb.localIdx.get(int(plan.H[ci]))
			v, _ := tb.localIdx.get(int(plan.V[ci]))
			tb.jobs = append(tb.jobs, placedJob{int32(h), int32(v), plan.SeedH[ci], plan.SeedV[ci], plan.SeedLen[ci], int32(ci)})
		}
	}
	tb.charge = tb.charge.With(ch)
	tb.load += it.Cost
}

// emit returns the tile's work, written into the next windows of seqBuf
// and jobBuf.
func (tb *tileBuilder) emit(fanout []int32, seqBuf *[]workload.SeqRef, jobBuf *[]ipukernel.SeedJob) ipukernel.TileWork {
	w := ipukernel.TileWork{Seqs: carve(seqBuf, len(tb.seqs)), Jobs: carve(jobBuf, len(tb.jobs))}
	copy(w.Seqs, tb.seqs)
	for k, p := range tb.jobs {
		job := &w.Jobs[k]
		job.HLocal, job.VLocal = int(p.hLocal), int(p.vLocal)
		job.SeedH, job.SeedV, job.SeedLen = int(p.seedH), int(p.seedV), int(p.seedLen)
		job.GlobalID = p.ci
		if fanout != nil {
			job.Fanout = fanout[p.ci]
		}
	}
	return w
}

// carve cuts the next n elements off *buf as a window whose capacity ends
// at its length. When *buf has no room it starts a fresh chunk, twice the
// last one or n if larger; earlier windows keep their chunk.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if len(b)+n > cap(b) {
		b = make([]T, 0, max(n, 2*cap(b)))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
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

// batch distributes items across tiles into BSP batches: items are placed
// largest-cost-first onto the least-loaded tile of the open batch that
// still has the SRAM for them (longest-processing-time k-partitioning
// under the §4.2 quadratic estimate); when no tile fits, the batch
// closes. maxJobs caps the jobs per batch (0 = no cap): finer batches
// keep the multi-IPU work queue deep enough for the driver to scale and
// prefetch (§4.4). fanout[ci] is the number of planned comparisons that
// comparison ci represents after duplicate-extension elimination (nil =
// every comparison stands for itself); the counts ride along on the tile
// jobs so the kernel can account the work dedup skipped. charges[i] is
// the fold of items[i]'s rows' Charges.
//
// "Least-loaded tile that fits, lowest index on ties" is evaluated without
// visiting every tile. All empty tiles of a batch are interchangeable
// (same fit verdict, load 0), so the lowest-indexed one beats the rest on
// the tie-break and the tiles holding work are always the index prefix
// [0, used). The candidates are therefore those used tiles plus tile
// `used` as the one empty representative, kept in (load, index) order;
// the first that fits is the argmin over all tiles. Cost per item is
// O(|item|) plus O(log used) per tile tried, independent of `tiles`.
//
// cheapest is the batch whose tiles' loads sum least, the lowest index on
// ties: LPT fills the first batches with the largest items, so it is
// usually the last.
func batch(plan *workload.Plan, refs []workload.SeqRef, items []Item, charges []ipukernel.Charge, tiles int, cfg *ipukernel.Config, model platform.IPUModel, maxJobs int, fanout []int32) (batches []*ipukernel.Batch, cheapest int, err error) {
	if tiles <= 0 {
		return nil, 0, fmt.Errorf("partition: tiles must be positive")
	}
	if maxJobs <= 0 {
		maxJobs = 1 << 30
	}
	budget := model.DataSRAM()
	// pos is the table a tile's first item writes its Seqs' positions
	// into (tileBuilder.add).
	pos := make([]int32, len(refs))

	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	// Largest cost first, ties in item order: the stable sort's order.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(items[b].Cost, items[a].Cost); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// The batches are cut from shared buffers: every tile's Seqs and Jobs
	// are windows of seqBuf and jobBuf, each allocated once — every
	// comparison of the items is one job, and a tile holds at most its
	// items' sequences — and the Batch headers and Tiles arrays come from
	// chunks that double as batches close.
	nSeqs, nJobs := 0, 0
	for i := range items {
		nSeqs += len(items[i].Seqs)
		nJobs += len(items[i].Cmps)
	}
	seqBuf := make([]workload.SeqRef, 0, nSeqs)
	jobBuf := make([]ipukernel.SeedJob, 0, nJobs)
	var batchBuf []ipukernel.Batch
	var tileBuf []ipukernel.TileWork

	var least float64 // batches[cheapest]'s load
	// pool[i] builds tile i of every batch; entries are created the first
	// time a batch reaches that many tiles and reset when it closes.
	var pool []*tileBuilder
	builder := func(i int) *tileBuilder {
		if i == len(pool) {
			pool = append(pool, &tileBuilder{index: i})
		}
		return pool[i]
	}
	used, batchJobs := 0, 0
	cand := candidates{builder(0)}
	var full []*tileBuilder // candidates the current item does not fit

	closeBatch := func() {
		n := 0
		for _, tb := range pool[:used] {
			if len(tb.jobs) > 0 {
				n++
			}
		}
		if n > 0 {
			b := &carve(&batchBuf, 1)[0]
			b.Tiles = carve(&tileBuf, n)[:0]
			load := 0.0
			for _, tb := range pool[:used] {
				if len(tb.jobs) > 0 {
					b.Tiles = append(b.Tiles, tb.emit(fanout, &seqBuf, &jobBuf))
					load += tb.load
				}
			}
			if len(batches) == 0 || load < least {
				cheapest, least = len(batches), load
			}
			batches = append(batches, b)
		}
		for _, tb := range pool[:used] {
			tb.reset()
		}
		used, batchJobs = 0, 0
		cand = append(cand[:0], pool[0])
	}

	for _, idx := range order {
		it, ch := &items[idx], charges[idx]
		placed := false
		for attempt := 0; attempt < 2 && !placed; attempt++ {
			if batchJobs+len(it.Cmps) > maxJobs && batchJobs > 0 {
				closeBatch()
			}
			full = full[:0]
			for len(cand) > 0 && cand[0].memoryWith(refs, it, ch, cfg, model) > budget {
				full = append(full, heap.Pop(&cand).(*tileBuilder))
			}
			if len(cand) == 0 {
				// No room anywhere: start a fresh batch and retry once.
				closeBatch()
				continue
			}
			tb := cand[0]
			tb.add(refs, plan, it, pos, ch)
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
			return nil, 0, fmt.Errorf("partition: item with %d comparisons (%d B of sequences) cannot fit an empty tile; reduce δb or split the item",
				len(it.Cmps), it.Bytes)
		}
	}
	closeBatch()
	return batches, cheapest, nil
}
