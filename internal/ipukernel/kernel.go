// Package ipukernel is the X-Drop codelet: it executes seed extensions on
// the simulated IPU's tiles exactly as §4.1 describes — six data-parallel
// threads per tile over the detached sequence-set/seed-list data structure
// of Fig. 4, with left/right extension splitting (§4.1.2), eventual work
// stealing (§4.1.3) and VLIW dual issue (§4.1.4) as switchable
// optimisations.
//
// The alignments themselves are computed for real (internal/core); the
// kernel charges each one a deterministic instruction cost derived from
// its execution trace, which the device (internal/ipu) converts to time.
package ipukernel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// SeedJob is one comparison placed on a tile. Sequence references are
// local to the tile's detached sequence set, so a sequence shared by many
// comparisons is stored (and transferred) once — the optimisation that
// saves O(#seeds) host traffic (§4.1.1).
type SeedJob struct {
	// HLocal and VLocal index the tile's Seqs.
	HLocal, VLocal int
	// SeedH, SeedV, SeedLen locate the seed match.
	SeedH, SeedV, SeedLen int
	// GlobalID identifies the comparison in the submitting dataset.
	GlobalID int
	// Fanout is the number of planned comparisons this job represents
	// after duplicate-extension elimination (0 or 1 = itself only). It is
	// host bookkeeping for skipped-work accounting — the device tuple
	// (JobTupleBytes) does not ship it, because fan-out happens on the
	// host when results are assembled.
	Fanout int
}

// TileWork is the per-tile input of Fig. 4: the sequence set ω_i plus the
// seed-extension list. The set is held as spans into the shared arena
// spine — the dataset's packed Ω — so batches from any number of
// concurrent jobs reference one copy of the pool, and transfer sizes fall
// out of the spans instead of summed slice headers.
type TileWork struct {
	// Slabs is the spine slab table the tile's spans address, indexed by
	// SeqRef.Slab (shared, immutable). The partitioner leaves it nil and
	// the driver binds it per execution attempt (Batch.Bound) from the
	// arena's pinned slab set, so slabs a batch does not touch can stay
	// spilled; standalone tiles built with AddSeq carry their private
	// slab here directly.
	Slabs [][]byte
	// Seqs is the detached sequence set ω_i as spans into Slabs.
	Seqs []workload.SeqRef
	// Jobs is the seed-extension list over Seqs.
	Jobs []SeedJob
}

// Seq returns local sequence i as a zero-copy view into its slab.
func (t *TileWork) Seq(i int) []byte {
	r := t.Seqs[i]
	s := t.Slabs[r.Slab]
	return s[r.Off:r.End():r.End()]
}

// AddSeq appends s to the tile's private slab (the last entry of Slabs)
// and returns its local index. It is the standalone construction path
// (tests, single-tile tools); the partitioner instead points tiles at the
// dataset's shared arena spine. Like Arena.Append, it panics if the slab
// would outgrow 32-bit offsets.
func (t *TileWork) AddSeq(s []byte) int {
	if len(t.Slabs) == 0 {
		t.Slabs = append(t.Slabs, nil)
	}
	si := len(t.Slabs) - 1
	slab := t.Slabs[si]
	if len(slab)+len(s) > workload.MaxSlabBytes {
		panic(fmt.Sprintf("ipukernel: tile slab would exceed %d bytes", workload.MaxSlabBytes))
	}
	t.Seqs = append(t.Seqs, workload.SeqRef{Slab: int32(si), Off: int32(len(slab)), Len: int32(len(s))})
	t.Slabs[si] = append(slab, s...)
	return len(t.Seqs) - 1
}

// SeqBytes returns the tile's sequence payload size: the sum of span
// lengths, charging one transfer per descriptor (a sequence placed twice —
// the Copies mode — is transferred twice, as on the real device).
func (t *TileWork) SeqBytes() int {
	n := 0
	for _, r := range t.Seqs {
		n += int(r.Len)
	}
	return n
}

// UniqueSeqBytes returns the distinct slab bytes the tile's spans cover —
// the exact §4.1 payload an arena-aware exchange would ship, with spans
// deduplicated and overlaps merged. SeqBytes ≥ UniqueSeqBytes; the gap is
// what descriptor-level duplication still costs.
func (t *TileWork) UniqueSeqBytes() int {
	n, _ := t.uniqueSeqBytes(nil)
	return n
}

// uniqueSeqBytes is UniqueSeqBytes with a reusable sort scratch, so the
// per-batch accounting loop in Run stays allocation-free once warm.
// Spans merge only within their own slab — offsets in different slabs
// are unrelated addresses — so the sort is (slab, offset)-ordered and a
// slab change closes the current merge run. The total is therefore
// identical however the same logical pool is cut into slabs.
func (t *TileWork) uniqueSeqBytes(scratch []workload.SeqRef) (int, []workload.SeqRef) {
	if len(t.Seqs) == 0 {
		return 0, scratch
	}
	scratch = append(scratch[:0], t.Seqs...)
	slices.SortFunc(scratch, func(a, b workload.SeqRef) int {
		if a.Slab != b.Slab {
			return int(a.Slab) - int(b.Slab)
		}
		return int(a.Off) - int(b.Off)
	})
	n := 0
	cur := scratch[0]
	for _, s := range scratch[1:] {
		if s.Slab == cur.Slab && s.Off <= cur.End() {
			if s.End() > cur.End() {
				cur.Len = s.End() - cur.Off
			}
			continue
		}
		n += int(cur.Len)
		cur = s
	}
	return n + int(cur.Len), scratch
}

// Batch is one BSP superstep's worth of work across tiles.
type Batch struct {
	// Tiles holds at most device.Tiles() entries.
	Tiles []TileWork
}

// Jobs counts all comparisons in the batch.
func (b *Batch) Jobs() int {
	n := 0
	for i := range b.Tiles {
		n += len(b.Tiles[i].Jobs)
	}
	return n
}

// Bound returns a shallow copy of the batch with every tile's slab table
// set to slabs (tiles share Seqs and Jobs with the original). This is
// the driver's per-attempt binding step: the partitioner emits tiles
// with nil Slabs, the driver pins the batch's slab set in the arena and
// binds here, so hedged attempts racing on the same BatchPlan each get a
// private tile header array and never mutate shared state.
func (b *Batch) Bound(slabs [][]byte) *Batch {
	nb := &Batch{Tiles: make([]TileWork, len(b.Tiles))}
	for i, t := range b.Tiles {
		t.Slabs = slabs
		nb.Tiles[i] = t
	}
	return nb
}

// Wire-format sizes for SRAM and transfer accounting: a job tuple is two
// sequence references plus two 32-bit seed offsets and a length
// (Fig. 4's (seqH*, seqV*, seedBegH, seedBegV) plus k); a result slot is
// the L/R scores and end offsets.
const (
	JobTupleBytes  = 20
	ResultBytes    = 32
	seqDescrBytes  = 8 // per-sequence descriptor (pointer+length)
	batchHdrBytes  = 64
	outScoreFields = 4
)

// Config selects the kernel variant and optimisation set.
type Config struct {
	// Params configures the X-Drop extension (algorithm, X, δb, scoring).
	Params core.Params
	// Threads is the hardware thread count to use (0 → the model's six).
	Threads int
	// LRSplit schedules left and right extensions as separate work units
	// (§4.1.2); otherwise one unit computes both.
	LRSplit bool
	// WorkStealing enables the lock-free shared work list (§4.1.3);
	// otherwise units are statically assigned round-robin.
	WorkStealing bool
	// BusyWaitVariance enables the thread-unique busy-wait that turns
	// racy stealing into "eventual" work stealing (§4.1.3). Ignored
	// unless WorkStealing is set.
	BusyWaitVariance bool
	// DualIssue co-issues the integer and float pipelines (§4.1.4).
	DualIssue bool
	// Traceback enables traceback: AlignOut carries the alignment's CIGAR
	// plus exact trace-memory accounting. Off, results are bit-identical
	// to the score-only kernel. Every trace comes from core's one
	// recording sweep, 2 bits per banded cell, so trace memory stays
	// bounded by the live window band, never by the full matrix; the peak
	// single-extension footprint surfaces as
	// Counters.PeakTracebackBytes. One rule places each extension's
	// recording on the modeled device. An ungated, fused-eligible
	// extension whose ExtensionTraceBytes bound fits fusedTraceBudget
	// records inside its scoring pass (one sweep); the arena lives on its
	// thread for the whole pass, so TileMemoryBytes charges it once per
	// thread. Every other extension is scored first and then swept again
	// as a second pass (charged like another DP sweep); second passes are
	// serialized through one per-tile arena, so TileMemoryBytes charges the
	// tile's worst such extension once. Either way the tile stays
	// SRAM-certified. The rule is the device's: on the host every ungated,
	// fused-eligible extension is swept once, whatever it is charged.
	// Every recording's walked path is re-priced against its score, and a
	// mismatch fails the batch. Traceback requires a linear-gap
	// Params.Algo: Run rejects core.AlgoAffine, which is score-only.
	Traceback bool
	// TraceMinScore gates the traceback pass on the comparison's total
	// score (left + seed + right): with a positive cutoff only
	// comparisons that reach it are traced — the rest return score-only
	// results (no CIGAR, no trace bytes), exactly as a score-only run
	// would report them. Gated second passes are deferred until both
	// extension scores are known and are charged to the threads that
	// scored the sides, so a gated run never fuses (a fused recording
	// cannot be deferred — its buffers are clobbered by the thread's next
	// extension). Zero or negative traces every comparison. Ignored unless
	// Traceback is set; part of the kernel fingerprint (when tracing), so
	// gated and ungated runs never share cache entries.
	TraceMinScore int
	// Cost is the instruction cost model (zero value → calibrated
	// defaults).
	Cost platform.KernelCost
	// Parallelism caps the host-side tile worker pool (0 → GOMAXPROCS).
	// Callers that already run Run concurrently (driver.NewPlan) divide
	// their budget here so nested pools do not multiply.
	Parallelism int
}

// withDefaults resolves the thread count against the model (zero or
// out-of-range selects the model's hardware threads) and fills in the
// calibrated cost model.
func (c Config) withDefaults(m platform.IPUModel) Config {
	if c.Threads <= 0 || c.Threads > m.ThreadsPerTile {
		c.Threads = m.ThreadsPerTile
	}
	if c.Cost == (platform.KernelCost{}) {
		c.Cost = platform.DefaultKernelCost
	}
	return c
}

// fusedTraceBudget is the modeled device's per-thread direction-arena
// allowance of a fused recording: an extension fuses only when its
// ExtensionTraceBytes bound fits, so the concurrent recordings of a
// six-thread tile cost at most 6×16 KiB — under a sixth of the 624 KiB
// tile — while small-band extensions (the common X-Drop case) still skip
// the replay. The host has no such limit and does not apply it.
const fusedTraceBudget = 16 << 10

// traceGated reports whether the score-threshold gate is active.
func (c Config) traceGated() bool { return c.Traceback && c.TraceMinScore > 0 }

// fusedExtension decides whether the modeled device records an extension
// with side lengths lh×lv during its scoring pass (fused single-pass)
// rather than scoring it and replaying: the run traces ungated, the
// extension is core.FusedEligible, and its arena bound fits
// fusedTraceBudget. The decision belongs to the model alone — the
// instruction charge (one sweep or two) and the SRAM charge, which
// partition's budget math reaches through TraceCharges. The host sweeps
// every ungated, fused-eligible extension once either way (runSide).
func (c Config) fusedExtension(lh, lv int) bool {
	return c.Traceback && !c.traceGated() && core.FusedEligible(lh, lv, c.Params) &&
		c.ExtensionTraceBytes(lh, lv) <= fusedTraceBudget
}

// Tier returns the kernel tier, Params.Tier.
func (c Config) Tier() core.Tier { return c.Params.Tier }

// bufCellsPerThread returns the per-thread DP window size in score cells
// for the configured algorithm given the largest min(m,n) among a tile's
// extensions: Standard3 needs 3δ scores, Restricted2 needs 2δb (§3).
func (c Config) bufCellsPerThread(maxMinLen int) int {
	delta := maxMinLen + 1
	switch c.Params.Algo {
	case core.AlgoStandard3:
		return 3 * delta
	case core.AlgoAffine:
		return 7 * delta
	default:
		db := c.Params.DeltaB
		if db <= 0 || db > delta {
			db = delta
		}
		return 2 * db
	}
}

// WorkBufBytesPerThread returns the per-thread DP buffer footprint for
// the configured algorithm and kernel tier given the largest min(m,n)
// among a tile's extensions. This is the quantity the 55× claim
// compares. The tier shapes it as the executing workspaces actually
// allocate:
//
//   - TierWide (or narrow-ineligible parameters): int32 buffers only.
//   - TierNarrow: int16 buffers plus the full int32 set — a saturating
//     extension promotes mid-batch and the wide buffers must already fit.
//   - TierAuto: when every admissible extension passes the headroom
//     precheck (maxMinLen within core.NarrowCapLen), int16 buffers only —
//     Auto never promotes, so this is certifiable and is the tier's SRAM
//     win. A mixed tile provisions wide buffers for the over-cap jobs
//     plus int16 buffers sized to the largest headroom-certified job.
func (c Config) WorkBufBytesPerThread(maxMinLen int) int {
	wide := c.bufCellsPerThread(maxMinLen) * core.WideScoreBytes
	if !c.Params.NarrowEligible() {
		return wide
	}
	switch c.Params.Tier {
	case core.TierNarrow:
		return wide + c.bufCellsPerThread(maxMinLen)*core.NarrowScoreBytes
	case core.TierAuto:
		if c.Params.Scorer == nil {
			return wide
		}
		capLen := core.NarrowCapLen(c.Params.Scorer.MaxScore())
		if maxMinLen <= capLen {
			return c.bufCellsPerThread(maxMinLen) * core.NarrowScoreBytes
		}
		return wide + c.bufCellsPerThread(capLen)*core.NarrowScoreBytes
	default:
		return wide
	}
}

// ExtensionTraceBytes bounds the direction-trace footprint of one
// recording over an extension with side lengths lh×lv: packed per-cell
// codes (2 bits per banded cell) over at most
// lh+lv+1 antidiagonal windows, each at most the band wide (δb-capped
// for Restricted2) and collectively at most the full matrix, plus the
// 8-byte-per-antidiagonal window index. The bound dominates the exact
// tracer footprint (core.Trace.TraceBytes) for every input; zero with
// Config.Traceback off.
func (c Config) ExtensionTraceBytes(lh, lv int) int {
	if !c.Traceback || lh < 0 || lv < 0 {
		return 0
	}
	antid := lh + lv + 1
	bandw := min(lh, lv) + 1
	switch c.Params.Algo {
	case core.AlgoStandard3, core.AlgoAffine:
	default:
		if db := c.Params.DeltaB; db > 0 && db < bandw {
			bandw = db
		}
	}
	cells := int64(antid) * int64(bandw)
	if full := int64(lh+1) * int64(lv+1); full < cells {
		cells = full
	}
	return int((cells+3)/4) + 8*(antid+1)
}

// TileMemoryBytes returns the SRAM footprint of a tile's work under the
// kernel configuration: sequences, descriptors, job tuples, per-thread DP
// buffers (tier-aware), result slots, and — with traceback on — the
// direction-arena charges. Replay-path extensions share one serialized
// arena sized for the tile's worst such extension; fused-path extensions
// record concurrently on every thread, so their worst arena is charged
// once per thread. The partitioner admits items against the same
// TileFootprint sum.
func (c Config) TileMemoryBytes(t *TileWork, model platform.IPUModel) int {
	cc := c.withDefaults(model)
	maxMin, maxReplay, maxFused := 0, 0, 0
	for _, j := range t.Jobs {
		hn, vn := int(t.Seqs[j.HLocal].Len), int(t.Seqs[j.VLocal].Len)
		// The larger extension side bounds δ for this job.
		rh, rv := hn-j.SeedH-j.SeedLen, vn-j.SeedV-j.SeedLen
		l := min(j.SeedH, j.SeedV)
		r := min(rh, rv)
		maxMin = max(maxMin, l, r)
		if cc.Traceback {
			lf, lr := cc.TraceCharges(j.SeedH, j.SeedV)
			rf, rr := cc.TraceCharges(rh, rv)
			maxFused = max(maxFused, lf, rf)
			maxReplay = max(maxReplay, lr, rr)
		}
	}
	return cc.TileFootprint(t.SeqBytes(), len(t.Seqs), len(t.Jobs), maxMin, maxFused, maxReplay, cc.Threads)
}

// TileFootprint is the tile SRAM formula itself, over the quantities a
// tile's work reduces to: sequence bytes, sequence and job counts, the
// largest min-side extension (sizes the per-thread DP buffers), and the
// worst fused (per-thread) and replay (one shared arena) trace charges.
// TileMemoryBytes evaluates it on finished work, partition's admission
// on work it is still assembling.
func (c Config) TileFootprint(seqBytes, nSeqs, nJobs, maxMin, fused, replay, threads int) int {
	return seqBytes +
		nSeqs*seqDescrBytes +
		nJobs*(JobTupleBytes+ResultBytes) +
		threads*(c.WorkBufBytesPerThread(maxMin)+fused) +
		replay +
		batchHdrBytes
}

// TraceCharges reports one extension's direction-arena bound in the pool
// the kernel records it in: fused (per-thread) or replay (the shared
// serialized arena); at most one of the two is nonzero. TileMemoryBytes
// and partition's budget math both apply this split, so admitted tiles
// keep their SRAM certification.
func (c Config) TraceCharges(lh, lv int) (fused, replay int) {
	b := c.ExtensionTraceBytes(lh, lv)
	if b == 0 {
		return 0, 0
	}
	if c.fusedExtension(lh, lv) {
		return b, 0
	}
	return 0, b
}

// AlignOut is one comparison's result.
type AlignOut struct {
	// GlobalID echoes the job's comparison identity.
	GlobalID int
	// Score = LeftScore + seed score + RightScore.
	Score int
	// LeftScore and RightScore are the two extension scores.
	LeftScore, RightScore int
	// BegH/BegV/EndH/EndV delimit the aligned region.
	BegH, BegV, EndH, EndV int
	// Cells and Antidiagonals aggregate both extensions' traces, one
	// execution each whatever the modeled schedule.
	Cells         int64
	Antidiagonals int
	// MaxLiveBand is the larger δw of the two extensions.
	MaxLiveBand int
	// Clamped reports a δb clamp in either extension.
	Clamped bool
	// Failed marks a comparison whose batch exhausted the engine's fault
	// tolerance and completed as a degraded placeholder instead of an
	// alignment: GlobalID is valid, every score, coordinate and trace
	// field is zero. The kernel never sets it — it exists so degraded
	// per-comparison status can ride the same result plumbing (fan-out,
	// streaming, reports) as real alignments. Counted in
	// driver.Report.PartialFailures; never stored in a result cache.
	Failed bool
	// Cigar is the comparison's full edit script (left extension + seed
	// columns + right extension) over [BegH,EndH)×[BegV,EndV). Empty
	// unless Config.Traceback is set. Being a validated string it is
	// immutable and comparable, so results stay ==-testable and safely
	// shared through dedup fan-out and the cross-job result cache.
	Cigar alignment.Cigar
	// TraceBytes is the exact direction-trace storage both extensions'
	// recordings held (0 with traceback off).
	TraceBytes int
}

// Counters is the one set of execution counters a run reports. Each is
// declared here, once, with its name on the wire; every layer above —
// tile, batch, plan, report, stream — embeds this struct and merges with
// Add instead of re-declaring fields.
type Counters struct {
	// HostBytesIn is the host→device payload (sequences, descriptors,
	// job tuples, header) — what the driver pushes over the shared link.
	HostBytesIn int64 `json:"hostBytesIn"`
	// HostBytesOut is the device→host result payload.
	HostBytesOut int64 `json:"hostBytesOut"`
	// UniqueSeqBytesIn is the exact arena payload per §4.1: the distinct
	// slab bytes the tiles' spans cover. HostBytesIn − this gap is the
	// duplication an offset-addressed exchange would eliminate.
	UniqueSeqBytesIn int64 `json:"uniqueSeqBytesIn"`
	// TheoreticalCells is the |H|·|V| volume of the executed comparisons
	// (the GCUPS numerator, §5.1), counted once per comparison. Cells is
	// what the X-Drop band computed on the device: it counts device work,
	// so a race's duplicate execution is counted once per tied thread
	// (the per-result AlignOut.Cells counts one execution).
	TheoreticalCells int64 `json:"theoreticalCells"`
	Cells            int64 `json:"cells"`
	// SumBand and Antidiags support mean-live-band reporting; like Cells
	// they count device work, a race's duplicate included.
	SumBand   int64 `json:"sumBand"`
	Antidiags int64 `json:"antidiags"`
	// Races counts duplicated steals (two threads grabbing one unit);
	// StealOps counts work-steal attempts (§4.1.3).
	Races    int `json:"races"`
	StealOps int `json:"stealOps"`
	// MaxSRAM is the largest per-tile SRAM footprint seen.
	MaxSRAM int `json:"maxSRAM"`
	// SkippedTheoreticalCells is the |H|·|V| volume kept off the device:
	// the duplicate comparisons the executed jobs stand for
	// (SeedJob.Fanout), plus — in a driver.Summary — what result-cache
	// hits served. TheoreticalCells covers executed work only, so the two
	// add up to the total a dedup-off run would model. DedupSkippedJobs
	// counts those duplicate comparisons; it stays off the wire. Both are
	// zero unless the driver planned with duplicate-extension elimination.
	SkippedTheoreticalCells int64 `json:"skippedTheoreticalCells"`
	DedupSkippedJobs        int   `json:"-"`
	// PeakTracebackBytes is the largest single-extension direction-trace
	// footprint any tile thread held — the extra SRAM a traceback-enabled
	// tile needs at once, bounded by the live-window band (2 bits per
	// banded cell), never by the O(m·n) matrix. Zero with
	// Config.Traceback off. TracebackBytes sums the recorded trace storage
	// over every executed extension.
	PeakTracebackBytes int   `json:"peakTracebackBytes"`
	TracebackBytes     int64 `json:"tracebackBytes"`
	// Kernel-tier accounting, one count per device execution of an
	// extension (a comparison contributes two, and a raced unit its
	// extensions again for every further tied thread; cache-served and
	// deduped comparisons contribute nothing — no kernel ran for them).
	// NarrowExtensions completed on the int16 tier; PromotedExtensions
	// saturated the int16 kernel and transparently re-ran wide;
	// WideExtensions ran int32 outright (TierWide, narrow-ineligible
	// parameters, or an Auto headroom refusal). The three are disjoint and
	// sum to the executed extensions.
	NarrowExtensions   int `json:"narrowExtensions"`
	WideExtensions     int `json:"wideExtensions"`
	PromotedExtensions int `json:"promotedExtensions"`
	// Traceback-gate accounting, one count per executed extension (an
	// extension is either traced or skipped, never both; both are zero
	// with Config.Traceback off). TracedExtensions recorded and delivered
	// a direction trace (fused or replayed); TraceSkippedExtensions were
	// score-gated below Config.TraceMinScore and returned score-only
	// results. Extensions of comparisons degraded by a trace-overflow
	// failure count in neither.
	TracedExtensions       int `json:"tracedExtensions"`
	TraceSkippedExtensions int `json:"traceSkippedExtensions"`
}

// Add merges o into c. This is the merge rule of every layer: counters
// sum, except the two high-water marks (MaxSRAM, PeakTracebackBytes),
// which take the maximum.
func (c *Counters) Add(o Counters) {
	c.HostBytesIn += o.HostBytesIn
	c.HostBytesOut += o.HostBytesOut
	c.UniqueSeqBytesIn += o.UniqueSeqBytesIn
	c.TheoreticalCells += o.TheoreticalCells
	c.Cells += o.Cells
	c.SumBand += o.SumBand
	c.Antidiags += o.Antidiags
	c.Races += o.Races
	c.StealOps += o.StealOps
	c.MaxSRAM = max(c.MaxSRAM, o.MaxSRAM)
	c.SkippedTheoreticalCells += o.SkippedTheoreticalCells
	c.DedupSkippedJobs += o.DedupSkippedJobs
	c.PeakTracebackBytes = max(c.PeakTracebackBytes, o.PeakTracebackBytes)
	c.TracebackBytes += o.TracebackBytes
	c.NarrowExtensions += o.NarrowExtensions
	c.WideExtensions += o.WideExtensions
	c.PromotedExtensions += o.PromotedExtensions
	c.TracedExtensions += o.TracedExtensions
	c.TraceSkippedExtensions += o.TraceSkippedExtensions
}

// BatchResult aggregates one superstep.
type BatchResult struct {
	// Out holds one entry per job, in batch tile/job order.
	Out []AlignOut
	// Seconds is the modeled superstep duration (compute+exchange+sync) —
	// on-device seconds, the time base the paper uses for IPU GCUPS (§5.1).
	Seconds float64
	// TileInstr is the per-tile max thread instruction count.
	TileInstr []int64
	// Counters is the batch's fold of its tiles' counters.
	Counters
}

// Run executes a batch on the device and accounts one BSP superstep.
func Run(dev *ipu.Device, b *Batch, cfg Config) (*BatchResult, error) {
	cfg = cfg.withDefaults(dev.Model())
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Traceback && cfg.Params.Algo == core.AlgoAffine {
		return nil, core.ErrAffineTraceback
	}
	if len(b.Tiles) > dev.Tiles() {
		return nil, fmt.Errorf("ipukernel: batch has %d tiles, device has %d", len(b.Tiles), dev.Tiles())
	}
	for ti := range b.Tiles {
		t := &b.Tiles[ti]
		for _, r := range t.Seqs {
			if r.Len == 0 {
				continue
			}
			if r.Slab < 0 || int(r.Slab) >= len(t.Slabs) || t.Slabs[r.Slab] == nil {
				return nil, fmt.Errorf("ipukernel: tile %d references slab %d but the tile's slab table is unbound (partitioned batches must be Bound to a pinned slab set before Run)", ti, r.Slab)
			}
		}
	}

	res := &BatchResult{
		TileInstr: make([]int64, len(b.Tiles)),
	}
	outOff := make([]int, len(b.Tiles))
	total := 0
	for i := range b.Tiles {
		outOff[i] = total
		total += len(b.Tiles[i].Jobs)
	}
	res.Out = make([]AlignOut, total)

	tiles := make([]tileResult, len(b.Tiles))

	// A GOMAXPROCS-sized worker pool pulls tiles from an atomic cursor:
	// per-worker executors carry the DP workspaces and scheduling scratch
	// across tiles (and, via execPool, across Run calls), so steady-state
	// tile execution allocates nothing. Results stay deterministic
	// regardless of worker count: each tile writes a disjoint slice of
	// res.Out and its own result slot, and per-tile execution is itself
	// deterministic.
	//
	// A worker yields the processor between tiles (≈ 0.1–0.5 ms of work
	// each). Workers are the process's CPU-bound goroutines and, under a
	// saturated engine, there is one per processor: whatever a delivered
	// batch woke downstream — the stream's consumer, the service's pump,
	// the HTTP handler's write and flush, the client's reader once netpoll
	// has readied it — otherwise waits out the batch, or Go's 10 ms
	// preemption quantum, at every hop. With nothing else runnable the
	// yield returns at once.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.Tiles) {
		workers = len(b.Tiles)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := execPool.Get().(*executor)
			defer execPool.Put(ex)
			for {
				ti := int(cursor.Add(1)) - 1
				if ti >= len(b.Tiles) {
					return
				}
				tile := &b.Tiles[ti]
				sram := cfg.TileMemoryBytes(tile, dev.Model())
				if sram > dev.DataSRAM() {
					tiles[ti].err = fmt.Errorf("ipukernel: tile %d needs %d B SRAM, budget %d B (use graph partitioning / smaller δb)",
						ti, sram, dev.DataSRAM())
					continue
				}
				tiles[ti] = runTile(tile, cfg, ex, res.Out[outOff[ti]:outOff[ti]+len(tile.Jobs)])
				tiles[ti].MaxSRAM = sram
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	var spanScratch []workload.SeqRef
	for ti := range tiles {
		tr := &tiles[ti]
		if tr.err != nil {
			return nil, tr.err
		}
		res.TileInstr[ti] = tr.maxInstr
		res.Add(tr.Counters)
		tile := &b.Tiles[ti]
		res.HostBytesIn += int64(tile.SeqBytes() + len(tile.Seqs)*seqDescrBytes +
			len(tile.Jobs)*JobTupleBytes + batchHdrBytes)
		var unique int
		unique, spanScratch = tile.uniqueSeqBytes(spanScratch)
		res.UniqueSeqBytesIn += int64(unique)
		// CIGARs ride the result return as 4-byte packed runs on top of
		// the fixed result slot.
		res.HostBytesOut += int64(len(tile.Jobs)*ResultBytes) + tr.cigarBytes
	}

	secs, err := dev.RunSuperstep(ipu.Superstep{
		TileInstr:     res.TileInstr,
		ExchangeBytes: res.HostBytesOut,
		SRAMUsed:      res.MaxSRAM,
	})
	if err != nil {
		return nil, err
	}
	res.Seconds = secs
	return res, nil
}
