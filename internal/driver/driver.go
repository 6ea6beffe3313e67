// Package driver is the host-side wrapping layer of §4.4: it owns the
// batches, schedules them over multiple standalone IPU devices through a
// shared work queue, and models the shared 100 Gb/s host link including
// prefetch overlap (transfers for the next batch proceed while a device
// computes, as the M2000 DRAM buffering permits).
//
// The devices stay hidden from the caller — scaling up is a matter of
// setting Config.IPUs, exactly like the paper's NUMBER_IPUS parameter
// (§5.3). Planning (batch construction and kernel execution) is separate
// from scheduling, so strong-scaling sweeps re-schedule the same plan at
// many device counts without recomputing alignments.
package driver

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/partition"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Config selects the device fleet and execution strategy.
type Config struct {
	// IPUs is the device count (NUMBER_IPUS).
	IPUs int
	// Model is the IPU generation.
	Model platform.IPUModel
	// TilesPerIPU restricts tiles per device (0 = all; Table 1 ablation
	// and scaled-down experiments).
	TilesPerIPU int
	// Kernel configures the on-tile X-Drop codelet.
	Kernel ipukernel.Config
	// Partition enables graph-based sequence reuse (§4.3) — the
	// "Multicomparison" mode of Fig. 7. Disabled, every comparison
	// travels with its own copy of both sequences.
	Partition bool
	// SeqBudget caps a partition's sequence payload in bytes (0 derives
	// a budget from tile SRAM and the dataset's longest extension).
	SeqBudget int
	// SpreadFactor targets this many items per tile so small workloads
	// still use the whole device (0 → 3).
	SpreadFactor int
	// BatchOverheadSeconds is the fixed host-side cost per submitted
	// batch (graph engagement, stream setup). Defaults to 0.5 ms.
	BatchOverheadSeconds float64
	// MaxBatchJobs caps comparisons per batch (0 = SRAM-bound batches).
	// Finer batches deepen the multi-device work queue.
	MaxBatchJobs int
	// DedupExtensions maps every comparison to its unique-extension
	// representative (content-addressed: interned bytes plus seed
	// geometry) and executes only the representatives; AssemblePlan fans
	// each result back out, so reports stay per-comparison while modeled
	// work drops. Off by default — reports are bit-identical to the
	// non-dedup stack when disabled, and per-comparison alignments are
	// identical either way.
	DedupExtensions bool
	// Cache, when non-nil, is consulted once per plan for every unique
	// extension and filled when plans are assembled, so byte-identical
	// extensions across jobs are aligned once (engine.WithResultCache
	// provides a bounded, recency-approximating sharded cache). A non-nil
	// Cache implies DedupExtensions.
	Cache ResultCache
	// Traceback enables the traceback subsystem: every result carries its
	// CIGAR (ipukernel.AlignOut.Cigar) and the report exposes peak
	// traceback memory. Normalized folds it into Kernel.Traceback, and it
	// is part of the kernel fingerprint, so a shared result cache never
	// serves CIGAR-less entries to a traceback-enabled run (or vice
	// versa). Off, reports are bit-identical to the score-only stack. The
	// trace gate lives on Kernel (TraceMinScore).
	Traceback bool
	// Faults, when non-nil, installs deterministic fault injection at the
	// ExecBatch boundary: transient and permanent execution failures plus
	// straggler latency, decided per (batch, attempt) from the plan's
	// seed. Injection can fail or delay an execution but never alter a
	// delivered result, so it is excluded from KernelFingerprint and a
	// shared result cache stays sound across faulty and clean runs
	// (degraded Failed placeholders are additionally never cached). Nil
	// injects nothing — the default path is byte-for-byte the seed
	// behaviour.
	Faults *FaultPlan
}

// CacheKey is the full identity a cached extension result depends on:
// the content-addressed extension (bytes + seed geometry) and a
// fingerprint of every kernel parameter that can change an alignment
// (KernelFingerprint). The driver composes both halves on every lookup,
// so a single ResultCache shared across differently-configured runs can
// never serve one configuration's scores to another.
type CacheKey struct {
	// Kernel is KernelFingerprint of the run's kernel configuration.
	Kernel uint64
	// Ext is the extension's content-addressed identity.
	Ext workload.ExtensionKey
}

// ResultCache memoises finished extensions across jobs. GetBatch is the
// lookup BuildBatches makes: every unique extension of a plan in one call,
// so the cache can take each of its locks once and let independent
// lookups overlap. outs[i] and hit[i] answer keys[i] (GlobalID in a cached
// value is meaningless; the assembler rewrites it per comparison); the
// return value counts the hits. keys is the build's scratch, reused once
// the call returns: an implementation must not keep it. Put records an
// executed extension. Implementations must be safe for concurrent use —
// the engine's executors and builders share one cache.
type ResultCache interface {
	GetBatch(keys []CacheKey, outs []ipukernel.AlignOut, hit []bool) (hits int)
	Put(key CacheKey, out ipukernel.AlignOut)
}

// keyScratch recycles BuildBatches' cache-lookup keys across builds.
var keyScratch = sync.Pool{New: func() any { return new([]CacheKey) }}

// KernelFingerprint hashes every kernel-configuration input that can
// change anything in an AlignOut: the algorithm, X, δb, gap penalties,
// the full scoring table and the traceback settings.
// Each unit's kernel runs exactly once whatever the schedule, so a result
// is a function of the comparison and these inputs alone. Knobs that only
// shape the modeled schedule or its time — thread count, the IPU model,
// LR splitting, work stealing and its busy-wait variance, dual issue,
// host-side parallelism — are deliberately excluded, so runs differing
// only in those share cache entries. The cost model is
// platform.DefaultKernelCost, which no configuration sets.
//
// The last fingerprint is memoised: an engine asks for its configuration's
// on every job it plans against the cache, and re-hashing the 64 KiB
// scoring table each time is work a cache-served job need not do.
func KernelFingerprint(cfg ipukernel.Config) uint64 {
	p := cfg.Params
	k := kernelKey{params: [5]int64{int64(p.Algo), int64(p.X), int64(p.DeltaB), int64(p.Gap), int64(p.GapOpen)}}
	if cfg.Traceback {
		// The kernel traces every comparison under any cutoff ≤ 0.
		k.traced, k.traceMinScore = true, int64(max(0, cfg.TraceMinScore))
	}
	if p.Scorer != nil {
		k.tab = p.Scorer.Table()
	}
	if last := lastKernelFP.Load(); last != nil && last.key == k {
		return last.fp
	}
	fp := k.hash()
	lastKernelFP.Store(&kernelFP{k, fp})
	return fp
}

// kernelKey is every input KernelFingerprint hashes. A scorer never
// changes its table, so the table's address stands for its contents.
type kernelKey struct {
	params        [5]int64 // Algo, X, DeltaB, Gap, GapOpen
	traced        bool
	traceMinScore int64
	tab           *scoring.PairTable
}

type kernelFP struct {
	key kernelKey
	fp  uint64
}

// lastKernelFP is KernelFingerprint's one-entry memo.
var lastKernelFP atomic.Pointer[kernelFP]

func (k kernelKey) hash() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, v := range k.params {
		put(v)
	}
	put(0) // the retired kernel-tier slot; hashing it keeps existing fingerprints
	if k.traced {
		// Traceback-on results carry CIGARs and trace-byte accounting;
		// they must never be served to (or taken from) a score-only run.
		// The gate cutoff decides which results carry CIGARs — entries
		// from gated and ungated runs must never mix, or a warm hit below
		// the cutoff would fan out a stale CIGAR. Hashed only while
		// tracing so score-only runs keep sharing entries.
		put(1)
		put(k.traceMinScore)
	}
	if k.tab != nil {
		row := make([]byte, len(k.tab[0]))
		for _, r := range k.tab {
			for i, v := range r {
				row[i] = byte(v)
			}
			h.Write(row)
		}
	}
	return h.Sum64()
}

// DefaultBatchOverheadSeconds is the modeled per-batch host cost.
const DefaultBatchOverheadSeconds = 0.5e-3

// Plan is an executed batch schedule: alignments are done, per-batch
// durations and transfer sizes are known, and the plan can be replayed
// against any device count.
type Plan struct {
	cfg     Config
	tiles   int
	results []ipukernel.AlignOut
	batches []batchTiming
	// sum is the schedule-independent part of every Report: the batches'
	// counters merged, plus the plan-level accounting. Schedule copies it
	// whole and sets IPUs, WallSeconds and TransferSeconds.
	sum Summary
}

type batchTiming struct {
	seconds  float64
	inBytes  int64
	outBytes int64
}

// Summary is every scalar a run reports — the execution counters
// (ipukernel.Counters, merged over the plan's batches) plus the plan- and
// schedule-level accounting declared here. It is the report on the wire:
// the service streams it as the final record, and Results travel in the
// chunks. Float fields round-trip exactly (Go's JSON encoder emits
// shortest-round-trip float64).
type Summary struct {
	// Batches is the number of BSP supersteps submitted.
	Batches int `json:"batches"`
	// IPUs is the scheduled device count.
	IPUs int `json:"ipus"`
	// WallSeconds is the modeled end-to-end time: transfers on the
	// shared link, compute, result return, with prefetch overlap. This
	// is the Fig. 7 measure.
	WallSeconds float64 `json:"wallSeconds"`
	// DeviceComputeSeconds sums on-device compute across batches — the
	// paper's GCUPS time base for Fig. 5 (§5.1: cycles/f, no transfers).
	DeviceComputeSeconds float64 `json:"deviceComputeSeconds"`
	// TransferSeconds is the total busy time of the shared host link.
	TransferSeconds float64 `json:"transferSeconds"`
	// Counters merges the executed batches. One field carries more than
	// their sum: SkippedTheoreticalCells also includes the volume
	// result-cache hits kept off the device.
	ipukernel.Counters
	// Clamped counts alignments whose δb window clamped, over the
	// fanned-out per-comparison results.
	Clamped int `json:"clamped"`
	// ReuseFactor is the partitioner's transfer saving (1 = none).
	ReuseFactor float64 `json:"reuseFactor"`
	// UniqueExtensions is the number of distinct (pair, seed) extensions
	// behind Results — equal to len(Results) unless DedupExtensions
	// collapsed duplicates.
	UniqueExtensions int `json:"uniqueExtensions"`
	// DedupedComparisons counts comparisons served by another row's
	// extension (0 with dedup off).
	DedupedComparisons int `json:"dedupedComparisons"`
	// CacheHits and CacheMisses count result-cache lookups during plan
	// building (0 without a cache).
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// PartialFailures counts comparisons that completed with a Failed
	// placeholder instead of an alignment — quarantined work the engine's
	// degraded partial-failure mode chose to report rather than retry
	// forever. Zero on any non-degraded run; Results entries with Failed
	// set carry no scores or coordinates.
	PartialFailures int `json:"partialFailures"`
}

// Report is the outcome of one scheduled run.
type Report struct {
	// Results holds one entry per comparison, indexed like the dataset's
	// comparison list.
	Results []ipukernel.AlignOut
	Summary
}

// GCUPS returns the paper's metric over the chosen time base.
func (r *Report) GCUPS(seconds float64) float64 {
	return metrics.GCUPS(r.TheoreticalCells, seconds)
}

// Normalized fills Config defaults the way every entry point (Run,
// NewPlan, the engine) must agree on, so a plan built anywhere schedules
// identically everywhere.
func (c Config) Normalized() Config {
	if c.IPUs <= 0 {
		c.IPUs = 1
	}
	if c.Model.Tiles == 0 {
		c.Model = platform.GC200
	}
	if c.SpreadFactor <= 0 {
		c.SpreadFactor = 3
	}
	// Fold the driver-level traceback switch into the kernel config (and
	// back), so fingerprints, batch execution and TileMemoryBytes all see
	// one flag no matter which level enabled it. Idempotent.
	c.Kernel.Traceback = c.Kernel.Traceback || c.Traceback
	c.Traceback = c.Kernel.Traceback
	return c
}

// EffectiveTiles returns the per-device tile count after clamping
// TilesPerIPU to the model.
func (c Config) EffectiveTiles() int {
	c = c.Normalized()
	tiles := c.TilesPerIPU
	if tiles <= 0 || tiles > c.Model.Tiles {
		tiles = c.Model.Tiles
	}
	return tiles
}

// BatchPlan is the build stage's output: the dataset partitioned and
// batched for the modeled device, but not yet executed. It separates the
// cheap, cancellable planning work from kernel execution so callers (the
// engine above all) can interleave batches from many plans onto a shared
// device fleet.
type BatchPlan struct {
	cfg         Config
	tiles       int
	batches     []*ipukernel.Batch
	firstIssue  int // the batch the batcher's estimate prices least
	comparisons int
	reuseFactor float64

	// arena is the spine the batches' spans address; batchSlabs[i] is the
	// sorted set of slab indices batch i references. Execution pins
	// exactly that set around each attempt (exec binds the pinned views
	// into a per-attempt batch copy), so slabs outside the working set can
	// stay spilled and hedged attempts never share mutable tile state.
	arena      *workload.Arena
	batchSlabs [][]int32

	// Dedup state (nil dedup = off, every comparison executed as itself).
	dedup *workload.DedupMap
	// execUID maps a kernel GlobalID (row in the executed sub-plan) to
	// its unique-extension ordinal.
	execUID []int32
	// cachedOuts[uid] holds the cache-hit result of unique extension uid
	// where cached[uid] is set; those extensions were never planned for
	// execution. Both are nil without a cache. cachedOuts has one slot
	// per comparison, not per extension: it is the array the report's
	// Assembly adopts, merges into and fans out in place.
	cachedOuts []ipukernel.AlignOut
	cached     []bool
	// keys[i] is the cache key of unique extension execUID[i] — the
	// misses, in ascending uid order like execUID — kept only when some
	// extension missed, so AssemblePlan can fill the cache after
	// execution.
	keys []CacheKey
	// cacheHits/cacheMisses count lookups at build time; cacheSkipCells
	// is the per-comparison theoretical volume cache hits kept off the
	// device (fan-out included).
	cacheHits, cacheMisses int
	cacheSkipCells         int64

	// fanOnce/fanOffsets/fanRows lazily build the uid → comparison-rows
	// index (CSR layout) behind ResultExpander and CachedResults; a plan
	// the cache served whole without in-job duplicates never builds it.
	fanOnce    sync.Once
	fanOffsets []int32
	fanRows    []int32
}

// fanIndex returns the unique-extension → comparison-rows index: rows
// for ordinal uid are fanRows[fanOffsets[uid]:fanOffsets[uid+1]]. Built
// once, safe for concurrent use.
func (bp *BatchPlan) fanIndex() (offsets, rows []int32) {
	bp.fanOnce.Do(func() {
		dm := bp.dedup
		bp.fanOffsets = make([]int32, dm.Unique()+1)
		for uid, f := range dm.Fanout {
			bp.fanOffsets[uid+1] = bp.fanOffsets[uid] + f
		}
		bp.fanRows = make([]int32, len(dm.RowUID))
		next := append([]int32(nil), bp.fanOffsets[:dm.Unique()]...)
		for row, uid := range dm.RowUID {
			bp.fanRows[next[uid]] = int32(row)
			next[uid]++
		}
	})
	return bp.fanOffsets, bp.fanRows
}

// ResultExpander returns a function that maps one executed batch's raw
// results into per-comparison space: each unique extension's result is
// fanned out to every comparison row that shares it, with GlobalID
// rewritten per row — the same view AssemblePlan produces, available
// per batch so streaming consumers keep the documented "GlobalID indexes
// the submitted dataset" contract. Returns nil when the plan was built
// without dedup (results are already per-comparison). The expander holds
// only the small fan-out index, built only when something executes, so
// callers may retain it after releasing the plan; it is safe for
// concurrent use.
//
// The expansion is best-effort on malformed input: a result whose
// GlobalID falls outside the executed sub-plan (impossible absent a
// kernel bug) is dropped from the stream, and the same condition fails
// the job loudly when AssemblePlan merges the full result set.
func (bp *BatchPlan) ResultExpander() func([]ipukernel.AlignOut) []ipukernel.AlignOut {
	if bp.dedup == nil {
		return nil
	}
	execUID := bp.execUID
	var offsets, rows []int32
	if len(execUID) > 0 {
		offsets, rows = bp.fanIndex()
	}
	return func(out []ipukernel.AlignOut) []ipukernel.AlignOut {
		exp := make([]ipukernel.AlignOut, 0, len(out))
		for _, o := range out {
			if o.GlobalID < 0 || o.GlobalID >= len(execUID) {
				continue
			}
			uid := execUID[o.GlobalID]
			for _, row := range rows[offsets[uid]:offsets[uid+1]] {
				o.GlobalID = int(row)
				exp = append(exp, o)
			}
		}
		return exp
	}
}

// CachedResults returns the per-comparison results the build resolved
// from the result cache (fanned out, GlobalID per row, rows in ascending
// unique-extension order), or nil when nothing was cache-served. These
// extensions never execute, so they appear in no batch; streaming
// consumers receive them as an up-front update. The slice is the
// caller's own; it must be taken before the plan's Assembly folds, which
// fans out over the array it is read from.
//
// A plan the cache served whole without in-job duplicates has its rows
// as ordinals: its results are one copy of the lookup's prefix, each
// given its row as GlobalID.
func (bp *BatchPlan) CachedResults() []ipukernel.AlignOut {
	if bp.cacheHits == 0 {
		return nil
	}
	if bp.cacheHits == len(bp.cached) && bp.dedup.Duplicates() == 0 {
		res := slices.Clone(bp.cachedOuts[:bp.cacheHits])
		for row := range res {
			res[row].GlobalID = row
		}
		return res
	}
	offsets, rows := bp.fanIndex()
	n := 0
	for uid, ok := range bp.cached {
		if ok {
			n += int(offsets[uid+1] - offsets[uid])
		}
	}
	res := make([]ipukernel.AlignOut, 0, n)
	for uid, ok := range bp.cached {
		if !ok {
			continue
		}
		o := bp.cachedOuts[uid]
		for _, row := range rows[offsets[uid]:offsets[uid+1]] {
			o.GlobalID = int(row)
			res = append(res, o)
		}
	}
	return res
}

// BuildBatches partitions and batches the dataset's comparisons without
// executing anything. The context is checked between the pipeline's
// stages (validate → dedup/cache → budget → partition → batch), so a
// cancelled submission aborts before burning kernel time.
//
// With Config.DedupExtensions (or a Cache), the build first maps every
// comparison to its unique-extension representative and — when a cache is
// attached — resolves representatives already memoised from earlier jobs;
// only the remainder is partitioned and batched. AssemblePlan fans every
// representative's result back out, so Report.Results stays one entry per
// submitted comparison.
func BuildBatches(ctx context.Context, d *workload.Dataset, cfg Config) (*BatchPlan, error) {
	return BuildBatchesMarked(ctx, d, cfg, nil)
}

// PlanStage names a stage boundary inside BuildBatches.
type PlanStage uint8

const (
	// PlanDeduped: the dataset is validated, deduplicated and looked up
	// in the result cache.
	PlanDeduped PlanStage = iota
	// PlanItemized: the comparisons are priced and grouped into items,
	// under the derived sequence budget; the batcher is next. A plan the
	// cache serves whole passes it with no items.
	PlanItemized
)

// BuildBatchesMarked is BuildBatches calling mark (when not nil) as it
// passes each PlanStage, in order, so that a caller can stamp where the
// plan's time went; a build that fails passes only the stages before
// the failure.
func BuildBatchesMarked(ctx context.Context, d *workload.Dataset, cfg Config, mark func(PlanStage)) (*BatchPlan, error) {
	if mark == nil {
		mark = func(PlanStage) {}
	}
	cfg = cfg.Normalized()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The one dataset-validation gate for every execution path (Run,
	// NewPlan, engine Submit): layers below index Ω without re-checking.
	if err := d.Validate(); err != nil {
		return nil, err
	}
	bp := &BatchPlan{cfg: cfg, comparisons: len(d.Comparisons)}

	// The dataset the partitioner sees: the submission itself, or the
	// unique-extension sub-plan over the same arena when dedup is on.
	execD := d
	var fanout []int32
	if cfg.DedupExtensions || cfg.Cache != nil {
		arena, plan := d.Spine()
		dm := arena.DedupPlan(plan)
		// Duplicate-free traffic with no cache to consult: the executed
		// sub-plan would be the whole plan, so skip the plan copy, the
		// derived dataset and the per-row fan-out entirely — the plain
		// path is byte-for-byte identical.
		dedupUseful := cfg.Cache != nil || dm.Duplicates() > 0
		if dedupUseful {
			bp.dedup = dm
		}
		if cfg.Cache != nil {
			kernelFP := KernelFingerprint(cfg.Kernel)
			// The lookup's keys are scratch: only a miss's key outlives the
			// build (bp.keys, for the Put pass).
			scratch := keyScratch.Get().(*[]CacheKey)
			defer keyScratch.Put(scratch)
			keys := slices.Grow((*scratch)[:0], dm.Unique())[:dm.Unique()]
			*scratch = keys
			for uid, row := range dm.UniqueRows {
				keys[uid] = CacheKey{Kernel: kernelFP, Ext: arena.ExtensionKeyOf(plan.At(int(row)))}
			}
			// Sized to the comparison count: the report adopts this array
			// (NewAssembly) and fans out into it in place.
			bp.cachedOuts = make([]ipukernel.AlignOut, bp.comparisons)
			bp.cached = make([]bool, len(keys))
			bp.cacheHits = cfg.Cache.GetBatch(keys, bp.cachedOuts[:len(keys)], bp.cached)
			bp.cacheMisses = len(keys) - bp.cacheHits
			if bp.cacheMisses > 0 {
				bp.keys = make([]CacheKey, 0, bp.cacheMisses)
			}
			for uid, ok := range bp.cached {
				if ok {
					bp.cachedOuts[uid].GlobalID = -1
					bp.cacheSkipCells += int64(dm.Fanout[uid]) *
						int64(keys[uid].Ext.HLen) * int64(keys[uid].Ext.VLen)
				} else {
					bp.keys = append(bp.keys, keys[uid])
				}
			}
		}
		if dedupUseful {
			if bp.cacheHits == dm.Unique() {
				// Every extension came from the cache: nothing to execute.
				mark(PlanDeduped)
				mark(PlanItemized)
				bp.tiles = cfg.EffectiveTiles()
				bp.reuseFactor = 1
				return bp, nil
			}
			execRows := make([]int32, 0, dm.Unique()-bp.cacheHits)
			for uid, row := range dm.UniqueRows {
				if bp.cached != nil && bp.cached[uid] {
					continue
				}
				bp.execUID = append(bp.execUID, int32(uid))
				execRows = append(execRows, row)
				fanout = append(fanout, dm.Fanout[uid])
			}
			if len(execRows) == plan.Len() {
				// Identity mapping — nothing collapsed, nothing cached
				// (execRows ≤ unique ≤ rows, so equality implies both).
				// Partition the submission itself and skip the plan copy;
				// the keys/execUID bookkeeping still feeds the Put pass.
				fanout = nil
			} else {
				execD = arena.NewDataset(d.Name, plan.Select(execRows), d.Protein)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mark(PlanDeduped)

	planner := partition.NewPlanner(execD, cfg.Kernel, cfg.Model)
	seqBudget := cfg.SeqBudget
	if seqBudget <= 0 {
		var err error
		seqBudget, err = planner.SeqBudget()
		if err != nil {
			return nil, err
		}
	}
	tiles := cfg.EffectiveTiles()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cap partition size so the workload spreads over every tile.
	maxCmps := 0
	if target := tiles * cfg.SpreadFactor; target > 0 && len(execD.Comparisons) > 0 {
		maxCmps = (len(execD.Comparisons) + target - 1) / target
		if maxCmps < 1 {
			maxCmps = 1
		}
	}
	planner.BuildItems(partition.Options{
		SeqBudget: seqBudget,
		Reuse:     cfg.Partition,
		MaxCmps:   maxCmps,
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mark(PlanItemized)
	batches, cheapest, err := planner.Batches(tiles, cfg.MaxBatchJobs, fanout)
	if err != nil {
		return nil, err
	}
	bp.tiles = tiles
	bp.batches = batches
	bp.firstIssue = cheapest
	bp.reuseFactor = planner.ReuseFactor()
	bp.arena, _ = execD.Spine()
	bp.batchSlabs = batchSlabSets(batches, bp.arena.NumSlabs())
	return bp, nil
}

// batchSlabSets computes, per batch, the sorted set of spine slabs its
// tiles' spans reference — the exact residency the batch needs pinned
// while it executes. On a single-slab arena every batch shares the one
// set {0}.
func batchSlabSets(batches []*ipukernel.Batch, numSlabs int) [][]int32 {
	sets := make([][]int32, len(batches))
	if numSlabs == 1 {
		only := []int32{0}
		for bi := range sets {
			sets[bi] = only
		}
		return sets
	}
	seen := make([]bool, numSlabs)
	for bi, b := range batches {
		clear(seen)
		n := 0
		for ti := range b.Tiles {
			for _, r := range b.Tiles[ti].Seqs {
				if !seen[r.Slab] {
					seen[r.Slab] = true
					n++
				}
			}
		}
		set := make([]int32, 0, n)
		for si, ok := range seen {
			if ok {
				set = append(set, int32(si))
			}
		}
		sets[bi] = set
	}
	return sets
}

// Batches returns the number of supersteps in the build.
func (bp *BatchPlan) Batches() int { return len(bp.batches) }

// FirstIssue returns the batch a caller waiting on the plan's first
// result executes first: the one whose items' §4.2 estimates sum least,
// the lowest index on ties, and 0 for a plan with no batches. The batcher
// places the costliest items first, so batch 0 is the plan's dearest.
// Which batch executes first never reaches a result, a batch index or
// the modeled schedule, which replays the batches in index order.
func (bp *BatchPlan) FirstIssue() int { return bp.firstIssue }

// NewDevice creates a modeled device matching the plan's configuration.
// A device holds nothing else, so one serves any number of batches and
// goroutines (and, in the engine, plans with the same configuration).
func (bp *BatchPlan) NewDevice() *ipu.Device {
	return ipu.New(ipu.Config{Model: bp.cfg.Model, TilesEnabled: bp.tiles})
}

// KernelConfig resolves the kernel configuration for an executor pool of
// the given width: an unset Parallelism splits the CPU budget between the
// pool and each Run's tile pool so nested pools do not multiply into P²
// goroutines.
func (bp *BatchPlan) KernelConfig(poolWorkers int) ipukernel.Config {
	kcfg := bp.cfg.Kernel
	if kcfg.Parallelism <= 0 && poolWorkers > 0 {
		kcfg.Parallelism = max(1, runtime.GOMAXPROCS(0)/poolWorkers)
	}
	return kcfg
}

// ExecBatch runs batch i on dev. Batches are independent (disjoint
// comparisons, no shared device state that affects results), so any
// executor may run any subset in any order; per-batch results are
// deterministic. It is attempt 0 of ExecBatchAttempt, on clock.Real.
func (bp *BatchPlan) ExecBatch(dev *ipu.Device, i int, kcfg ipukernel.Config) (*ipukernel.BatchResult, error) {
	res, _, err := bp.ExecBatchAttempt(context.Background(), dev, i, 0, kcfg, ipukernel.Turn{}, clock.Real, nil)
	return res, err
}

// ExecBatchAttempt runs one attempt of batch i on dev at turn (its place
// at the host's ipukernel.Gate; the zero Turn is ungated), consulting the
// configured fault plan first: an injected transient or permanent fault
// returns a *FaultError without touching the device, and a straggler
// decision runs the batch normally and then returns it late, after a wait
// on clk that ends with ctx's error if ctx is done first. computed, when
// non-nil, is called once the batch has run, before that wait. attempt
// numbers re-executions of the same batch — retries and hedges — so a
// seeded plan's schedule is reproducible per execution, not just per
// batch. Whenever an attempt returns a result, it is bit-identical to
// every other attempt's: injection can only fail or delay, never corrupt.
// pin is how long pinning the batch's slabs took on clk.
func (bp *BatchPlan) ExecBatchAttempt(ctx context.Context, dev *ipu.Device, i, attempt int, kcfg ipukernel.Config, turn ipukernel.Turn, clk clock.Clock, computed func()) (res *ipukernel.BatchResult, pin time.Duration, err error) {
	delay, err := bp.cfg.Faults.inject(i, attempt)
	if err != nil {
		return nil, 0, err
	}
	res, pin, err = bp.exec(dev, i, kcfg, turn, clk)
	if computed != nil {
		computed()
	}
	if delay > 0 {
		if werr := clock.Sleep(ctx, clk, delay); werr != nil {
			return nil, 0, werr
		}
	}
	return res, pin, err
}

// ExecBatchHost runs batch i through the reference host path: the same
// deterministic extension implementation (internal/core) the tile
// codelet wraps, executed on a private device outside the shared fleet
// and outside any installed fault plan. It is the graceful-degradation
// escape hatch for quarantined batches — per-comparison results are
// bit-identical to fleet execution by the determinism invariant, and the
// modeled accounting describes the same deterministic superstep, so a
// report assembled from any mix of fleet and host executions is
// bit-identical to the fault-free run.
func (bp *BatchPlan) ExecBatchHost(i int, kcfg ipukernel.Config) (*ipukernel.BatchResult, error) {
	res, _, err := bp.exec(bp.NewDevice(), i, kcfg, ipukernel.Turn{}, clock.Real)
	return res, err
}

// exec is the one execution sequence behind the fleet and host paths:
// pin batch i's slab set in the arena, bind the batch to the pinned views,
// run it on dev at turn and release the pin. Pinning an already resident
// slab is a counter bump, so the in-memory path pays one mutex round-trip
// per execution. It returns how long the pin took on clk beside the result.
func (bp *BatchPlan) exec(dev *ipu.Device, i int, kcfg ipukernel.Config, turn ipukernel.Turn, clk clock.Clock) (*ipukernel.BatchResult, time.Duration, error) {
	b := bp.batches[i]
	var pinned time.Duration
	if bp.arena != nil {
		start := clk.Now()
		pin, err := bp.arena.Pin(bp.batchSlabs[i])
		if err != nil {
			return nil, 0, fmt.Errorf("driver: batch %d slab pin: %w", i, err)
		}
		defer pin.Release()
		pinned = clk.Now().Sub(start)
		b = b.Bound(pin.Slabs())
	}
	res, err := turn.Run(dev, b, kcfg)
	return res, pinned, err
}

// FailedBatchResult synthesizes batch i's degraded outcome: one Failed
// placeholder per comparison (GlobalID preserved, everything else zero)
// and no modeled work. It is what the engine delivers for a quarantined
// batch completing in partial-failure mode; AssemblePlan fans the
// placeholders out like any result and counts them in
// Report.PartialFailures.
func (bp *BatchPlan) FailedBatchResult(i int) *ipukernel.BatchResult {
	b := bp.batches[i]
	res := &ipukernel.BatchResult{Out: make([]ipukernel.AlignOut, 0, len(b.Tiles))}
	for ti := range b.Tiles {
		for _, job := range b.Tiles[ti].Jobs {
			res.Out = append(res.Out, ipukernel.AlignOut{GlobalID: int(job.GlobalID), Failed: true})
		}
	}
	return res
}

// fold builds the plan around its comparison-ordered results: the
// batch-order half of assembly. Batch timings are replayed in schedule
// order and DeviceComputeSeconds is a float sum, so both are taken in
// batch order, never in the order batches landed; the integer counters
// are order-independent sums. Clamped and PartialFailures are left to the
// caller, which sees the per-comparison results.
func (bp *BatchPlan) fold(results []ipukernel.AlignOut, outs []*ipukernel.BatchResult) (*Plan, error) {
	if len(outs) != len(bp.batches) {
		return nil, fmt.Errorf("driver: %d batch results for %d batches", len(outs), len(bp.batches))
	}
	p := &Plan{
		cfg:     bp.cfg,
		tiles:   bp.tiles,
		results: results,
		batches: make([]batchTiming, len(outs)),
		sum: Summary{
			Batches:          len(outs),
			ReuseFactor:      bp.reuseFactor,
			UniqueExtensions: bp.comparisons,
			CacheHits:        bp.cacheHits,
			CacheMisses:      bp.cacheMisses,
			Counters:         ipukernel.Counters{SkippedTheoreticalCells: bp.cacheSkipCells},
		},
	}
	if bp.dedup != nil {
		p.sum.UniqueExtensions = bp.dedup.Unique()
		p.sum.DedupedComparisons = bp.dedup.Duplicates()
	}
	for bi, res := range outs {
		if res == nil {
			return nil, fmt.Errorf("driver: batch %d has no result", bi)
		}
		p.batches[bi] = batchTiming{
			seconds:  res.Seconds,
			inBytes:  res.HostBytesIn,
			outBytes: res.HostBytesOut,
		}
		p.sum.DeviceComputeSeconds += res.Seconds
		p.sum.Add(res.Counters)
	}
	return p, nil
}

// Assembly is a plan's report, filled as its batches land: Merge copies
// each executed batch's results into the array the report will hold, and
// Fold adds the batch-order accounting once every batch has landed. The
// merge is the only copy the report takes; the batch's own Out is free
// for a stream once Merge returns.
//
// Without dedup a batch's results are already per comparison and merge
// at their GlobalID. Under dedup they merge at their unique-extension
// ordinal, beside the cache hits the build already placed there, and Fold
// fans the first Unique() slots out to every comparison in place.
type Assembly struct {
	bp      *BatchPlan
	results []ipukernel.AlignOut
	// merged counts merged results; clamped and failed count those whose
	// δb window clamped and Failed placeholders, which a dedup plan counts
	// per comparison at the fan-out instead. Batches merge concurrently.
	merged, clamped, failed atomic.Int64
}

// NewAssembly returns the plan's report under construction. A plan built
// against a cache hands over the array its lookup filled (one slot per
// comparison, the hits at their ordinals); any other plan allocates one.
func (bp *BatchPlan) NewAssembly() *Assembly {
	results := bp.cachedOuts
	if results == nil {
		results = make([]ipukernel.AlignOut, bp.comparisons)
	}
	return &Assembly{bp: bp, results: results}
}

// Merge copies one executed batch's results into the report array: by
// GlobalID, or under dedup by the executed extension's ordinal. Batches
// may merge concurrently and in any order: a plan's batches hold disjoint
// comparisons, so each merge writes its own slots. res is only read;
// once Merge returns the report no longer depends on res.Out.
func (a *Assembly) Merge(res *ipukernel.BatchResult) error {
	execUID := a.bp.execUID
	dedup := a.bp.dedup != nil
	var clamped, failed int64
	for _, o := range res.Out {
		slot := o.GlobalID
		if dedup {
			if slot < 0 || slot >= len(execUID) {
				return fmt.Errorf("driver: result for unknown comparison %d", slot)
			}
			slot = int(execUID[slot])
		} else if slot < 0 || slot >= len(a.results) {
			return fmt.Errorf("driver: result for unknown comparison %d", slot)
		}
		a.results[slot] = o
		if o.Clamped {
			clamped++
		}
		if o.Failed {
			failed++
		}
	}
	a.merged.Add(int64(len(res.Out)))
	a.clamped.Add(clamped)
	a.failed.Add(failed)
	return nil
}

// Fold finishes the plan once every batch has merged; outs holds each
// batch's result in batch order, and only their scalars are read. Under
// dedup it first records every freshly executed alignment in the cache,
// then fans each extension's result out to its comparisons.
func (a *Assembly) Fold(outs []*ipukernel.BatchResult) (*Plan, error) {
	bp := a.bp
	p, err := bp.fold(a.results, outs)
	if err != nil {
		return nil, err
	}
	want := bp.comparisons
	if bp.dedup != nil {
		want = len(bp.execUID)
	}
	if got := int(a.merged.Load()); got != want {
		return nil, fmt.Errorf("driver: %d results merged for %d executed comparisons", got, want)
	}
	if bp.dedup == nil {
		p.sum.Clamped = int(a.clamped.Load())
		p.sum.PartialFailures = int(a.failed.Load())
		return p, nil
	}
	if bp.keys != nil {
		for i, uid := range bp.execUID {
			// Failed placeholders are degraded bookkeeping, not
			// alignments: caching one would serve a fault's shadow to a
			// later (possibly fault-free) job.
			if o := a.results[uid]; !o.Failed {
				o.GlobalID = -1
				bp.cfg.Cache.Put(bp.keys[i], o)
			}
		}
	}
	// Fan out in place, last comparison first. An extension's ordinal is
	// at most the row of its first appearance (RowUID[i] ≤ i), so slot i
	// is written only after every row that reads it (rows ≤ i) has — the
	// reads of rows below i come later and never reach slot i, and row i
	// reads its own slot before writing it. Coordinates and scores are
	// content-derived, so duplicates receive bit-identical alignments;
	// only GlobalID is per row.
	rowUID := bp.dedup.RowUID
	for i := len(a.results) - 1; i >= 0; i-- {
		o := a.results[rowUID[i]]
		o.GlobalID = i
		if o.Clamped {
			p.sum.Clamped++
		}
		if o.Failed {
			p.sum.PartialFailures++
		}
		a.results[i] = o
	}
	return p, nil
}

// NewPlan partitions, batches and executes the dataset's comparisons on
// the modeled device, producing a replayable schedule.
func NewPlan(d *workload.Dataset, cfg Config) (*Plan, error) {
	return NewPlanContext(context.Background(), d, cfg)
}

// NewPlanContext is NewPlan with cancellation: the context propagates
// into plan building and is checked before each batch execution, so a
// cancelled caller stops burning CPU at the next batch boundary.
func NewPlanContext(ctx context.Context, d *workload.Dataset, cfg Config) (*Plan, error) {
	bp, err := BuildBatches(ctx, d, cfg)
	if err != nil {
		return nil, err
	}

	// A GOMAXPROCS-bounded worker pool pulls batch indexes from an atomic
	// cursor and runs them on one modeled device. Each worker merges its
	// batch into the report as it lands.
	dev := bp.NewDevice()
	asm := bp.NewAssembly()
	outs := make([]*ipukernel.BatchResult, len(bp.batches))
	errs := make([]error, len(bp.batches))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(bp.batches) {
		workers = len(bp.batches)
	}
	kcfg := bp.KernelConfig(workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= len(bp.batches) || ctx.Err() != nil {
					return
				}
				outs[bi], errs[bi] = bp.ExecBatch(dev, bi, kcfg)
				if errs[bi] == nil {
					errs[bi] = asm.Merge(outs[bi])
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asm.Fold(outs)
}

// Batches returns the number of supersteps in the plan.
func (p *Plan) Batches() int { return len(p.batches) }

// Schedule replays the plan on ipus devices sharing one host link and
// returns the resulting report. Batches are pulled from a shared queue by
// the earliest-free device; inputs prefetch over the link while devices
// compute (the M2000 DRAM buffers them, §2.1.1); results return on the
// link's reverse direction.
func (p *Plan) Schedule(ipus int) *Report {
	if ipus <= 0 {
		ipus = 1
	}
	rep := &Report{Results: p.results, Summary: p.sum}
	rep.IPUs = ipus
	overhead := p.cfg.BatchOverheadSeconds
	if overhead <= 0 {
		overhead = DefaultBatchOverheadSeconds
	}
	ipuFree := make([]float64, ipus)
	linkInFree, linkOutFree, wall, linkBusy := 0.0, 0.0, 0.0, 0.0
	linkRate := p.cfg.Model.HostLinkBytesPerSec

	for _, b := range p.batches {
		dev := 0
		for i := 1; i < ipus; i++ {
			if ipuFree[i] < ipuFree[dev] {
				dev = i
			}
		}
		inTime := overhead + float64(b.inBytes)/linkRate
		outTime := float64(b.outBytes) / linkRate
		// Host→device transfers queue FIFO on the link's forward
		// direction and may run ahead of the device (prefetch).
		transferEnd := linkInFree + inTime
		linkInFree = transferEnd
		computeStart := transferEnd
		if ipuFree[dev] > computeStart {
			computeStart = ipuFree[dev]
		}
		computeEnd := computeStart + b.seconds
		ipuFree[dev] = computeEnd
		// Results return on the reverse direction.
		outStart := computeEnd
		if linkOutFree > outStart {
			outStart = linkOutFree
		}
		outEnd := outStart + outTime
		linkOutFree = outEnd
		if outEnd > wall {
			wall = outEnd
		}
		linkBusy += inTime + outTime
	}
	rep.WallSeconds = wall
	rep.TransferSeconds = linkBusy
	return rep
}

// Run plans and schedules in one step.
func Run(d *workload.Dataset, cfg Config) (*Report, error) {
	p, err := NewPlan(d, cfg)
	if err != nil {
		return nil, err
	}
	return p.Schedule(cfg.IPUs), nil
}
