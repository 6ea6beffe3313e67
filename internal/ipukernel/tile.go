package ipukernel

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
)

// unit is one schedulable piece of tile work: the extension sides
// [from, to) of one comparison — both, or with LR splitting one.
type unit struct{ job, from, to int }

// The two extension sides of a comparison. They index sides and the
// executor's per-side scratch.
const (
	left = iota
	right
)

// sides holds everything that differs between the two extension sides:
// core's entry points, where the side starts and how long it is, and the
// AlignOut fields its result fills.
var sides = [2]struct {
	name  string
	score func(*core.Workspace, []byte, []byte, int, int, core.Params) core.Result
	// record runs the recording sweep and appends the walked path's runs.
	record func(*core.Workspace, []byte, []byte, int, int, core.Params, []alignment.Run) (core.Result, core.Trace, []alignment.Run, error)
	// at returns the offsets core's entry points extend from and the
	// side lengths lh×lv.
	at func(job *SeedJob, h, v []byte) (hOff, vOff, lh, lv int)
	// place writes the side's extension result into o.
	place func(o *AlignOut, hOff, vOff int, r core.Result)
}{
	left: {"left", (*core.Workspace).ExtendLeft, (*core.Workspace).RecordLeft,
		func(job *SeedJob, _, _ []byte) (int, int, int, int) {
			return job.SeedH, job.SeedV, job.SeedH, job.SeedV
		},
		func(o *AlignOut, hOff, vOff int, r core.Result) {
			o.LeftScore, o.BegH, o.BegV = r.Score, hOff-r.EndH, vOff-r.EndV
		}},
	right: {"right", (*core.Workspace).ExtendRight, (*core.Workspace).RecordRight,
		func(job *SeedJob, h, v []byte) (int, int, int, int) {
			hOff, vOff := job.SeedH+job.SeedLen, job.SeedV+job.SeedLen
			return hOff, vOff, len(h) - hOff, len(v) - vOff
		},
		func(o *AlignOut, hOff, vOff int, r core.Result) {
			o.RightScore, o.EndH, o.EndV = r.Score, hOff+r.EndH, vOff+r.EndV
		}},
}

// tileResult is one tile's execution outcome: its counters (incremented
// in place by the helpers below) plus what only Run needs.
type tileResult struct {
	Counters
	maxInstr int64
	// cigarBytes is the encoded CIGAR payload added to the result transfer
	// (zero with Config.Traceback off).
	cigarBytes int64
	// err records a traceback kernel bug — a walked path that does not
	// re-price to its score, or a replay not bit-matching its score pass —
	// surfaced loudly instead of shipping a wrong alignment. A
	// trace-overflow (core.ErrTraceTooLarge) is not a kernel bug: it
	// degrades its one comparison to a Failed placeholder instead of
	// landing here.
	err error
}

// executor is a pool worker's reusable tile-execution state: one DP
// workspace (every unit runs once, in unit order), the per-unit memo the
// schedule replays, and the schedule's own state. Executors persist
// across tiles and (through execPool) across Run calls, so a warm tile
// execution performs no allocation.
type executor struct {
	ws core.Workspace
	// cost and work memoise each unit's one execution: the instruction
	// bundles it charges its thread, and the device counters it adds.
	cost  []int64
	work  []Counters
	sched tileSchedule
	// Traceback scratch (sized only when Config.Traceback is on), indexed
	// by side. runs holds every walked path of the side back to back, in
	// core's walk order; the rest is indexed by job: where in runs the
	// job's path lies, its trace footprint, and its score-pass Result,
	// which a replayed recording is cross-checked against. The paths are
	// joined with the seed columns once the tile's units have all run.
	// failed marks jobs whose trace recording overflowed (degraded to a
	// Failed placeholder).
	runs       [2][]alignment.Run
	spans      [2][]span
	traceBytes [2][]int
	scored     [2][]core.Result
	failed     []bool
	// cigar joins each job's runs and seed columns; its buffer is kept, so
	// a join allocates only the string it returns.
	cigar alignment.Builder
}

// span is the half-open range [from, to) of one job's runs in a side's
// run buffer.
type span struct{ from, to int }

// retainRuns bounds what an executor keeps of each run buffer between
// tiles — 1 MiB of runs, as core bounds a workspace's recording buffers:
// executors are pooled for the process lifetime, so an outlier tile's
// buffers must not stay pinned on one.
const retainRuns = 1 << 20 / int(unsafe.Sizeof(alignment.Run{}))

var execPool = sync.Pool{New: func() any { return &executor{} }}

// resized returns s with length n and every element zero, reusing its
// array when it is large enough. It clears through the full capacity,
// not just the new length: executors live in execPool for the process
// lifetime, and a stale CIGAR in the tail would pin an earlier tile's
// alignment-length string.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:cap(s)]
	clear(s)
	return s[:n]
}

// prepareTraces sizes and clears the per-job traceback scratch.
func (ex *executor) prepareTraces(jobs int) {
	for s := range sides {
		ex.runs[s] = ex.runs[s][:0]
		ex.spans[s] = resized(ex.spans[s], jobs)
		ex.traceBytes[s] = resized(ex.traceBytes[s], jobs)
		ex.scored[s] = resized(ex.scored[s], jobs)
	}
	ex.failed = resized(ex.failed, jobs)
}

// runTile executes all of a tile's jobs and fills out (one slot per job,
// in order), then models the tile's run on the configured number of
// hardware threads. It works in two phases:
//
//   - Execute: every unit's kernel runs exactly once, in unit order, on
//     the executor's one workspace; its charged instruction cost and its
//     device counters are memoised. The results are therefore a function
//     of the comparison and Params alone, whatever the schedule. A traced
//     extension the device would score and then replay is still swept
//     once here when it can be (runSide); the memoised cost charges it
//     both passes.
//   - Schedule: schedule replays the IPU's deterministic thread schedule
//     (§4.1.3) over the memoised costs — static assignment, stealing,
//     races, busy-wait variance — without touching the tile. A race's
//     duplicate is charged as the device would pay it: its cost on every
//     tied thread and its counters once per execution.
//
// With traceback gated (Config.TraceMinScore), the execute phase scores
// only, and the replays of above-cutoff comparisons are deferred until
// after the schedule, each charged to the thread that owns the side's
// unit — the skipped comparisons pay nothing beyond the score pass.
func runTile(t *TileWork, cfg Config, ex *executor, out []AlignOut) tileResult {
	var tr tileResult

	for j := range t.Jobs {
		out[j].GlobalID = t.Jobs[j].GlobalID
	}

	if cfg.Traceback {
		ex.prepareTraces(len(t.Jobs))
	}
	// Unit ui is job ui, or with LR splitting side ui%2 of job ui/2.
	units := len(t.Jobs)
	if cfg.LRSplit {
		units *= 2
	}
	ex.cost = resized(ex.cost, units)
	ex.work = resized(ex.work, units)
	for ui := range units {
		u := unit{job: ui, from: left, to: right + 1}
		if cfg.LRSplit {
			u = unit{job: ui / 2, from: ui % 2, to: ui%2 + 1}
		}
		ex.cost[ui] = ex.runUnit(t, cfg, u, &out[u.job], &ex.work[ui], &tr)
	}

	s := &ex.sched
	schedule(ex.cost, cfg, s)
	tr.StealOps, tr.Races = s.stealOps, s.races
	for ui, runs := range s.runs {
		for range runs {
			tr.Add(ex.work[ui])
		}
	}

	// Deferred gated replays: with the score gate active the execute phase
	// recorded nothing, so replay the above-cutoff comparisons now, each
	// side charged to the thread that owns its unit. The replays append to
	// those threads' deterministic counters before the superstep maximum
	// is taken — the modeled schedule runs them after the score pass
	// drains.
	instr := s.instr
	if cfg.traceGated() {
		for j := range t.Jobs {
			job := &t.Jobs[j]
			h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
			seed := core.Seed{H: job.SeedH, V: job.SeedV, Len: job.SeedLen}
			o := &out[j]
			if o.LeftScore+core.SeedScore(h, v, seed, cfg.Params)+o.RightScore < cfg.TraceMinScore {
				continue
			}
			for side := range sides {
				if ex.failed[j] || tr.err != nil {
					break
				}
				ui := j
				if cfg.LRSplit {
					ui = 2*j + side
				}
				instr[s.owner[ui]] += ex.replaySide(t, cfg, j, side, &tr)
			}
		}
	}
	tr.maxInstr = slices.Max(instr)

	// Combine extension results (seed score bridged between them) and
	// account theoretical cells once per comparison — duplicated racy
	// executions must not inflate the GCUPS numerator (§5.1). A job with
	// Fanout > 1 stands for that many byte-identical planned comparisons;
	// the duplicates' work never reaches the device, so it is accounted
	// separately as skipped rather than folded into the executed traces.
	for j := range t.Jobs {
		job := &t.Jobs[j]
		h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
		seed := core.Seed{H: job.SeedH, V: job.SeedV, Len: job.SeedLen}
		o := &out[j]
		o.Score = o.LeftScore + core.SeedScore(h, v, seed, cfg.Params) + o.RightScore
		tr.TheoreticalCells += int64(len(h)) * int64(len(v))
		if f := job.Fanout; f > 1 {
			tr.SkippedTheoreticalCells += int64(f-1) * int64(len(h)) * int64(len(v))
			tr.DedupSkippedJobs += f - 1
		}
		if !cfg.Traceback || tr.err != nil {
			continue
		}
		if ex.failed[j] {
			// The trace recording overflowed: degrade this one
			// comparison to the PR 6 placeholder (GlobalID valid,
			// everything else zero) instead of poisoning the batch.
			// AssemblePlan never caches Failed results.
			*o = AlignOut{GlobalID: o.GlobalID, Failed: true}
			continue
		}
		if cfg.TraceMinScore > 0 && o.Score < cfg.TraceMinScore {
			// Score-gated: deliver the score-only result, bit-identical
			// to a traceback-off run's.
			tr.TraceSkippedExtensions += 2
			continue
		}
		// Bridge the seed's own columns between the two walked paths.
		core.JoinCigar(&ex.cigar, h, v, seed, ex.sideRuns(left, j), ex.sideRuns(right, j))
		tr.cigarBytes += int64(ex.cigar.WireBytes()) // o.Cigar.WireBytes(), without scanning it
		o.Cigar = ex.cigar.Cigar()
		o.TraceBytes = ex.traceBytes[left][j] + ex.traceBytes[right][j]
		tr.TracebackBytes += int64(o.TraceBytes)
		tr.TracedExtensions += 2
	}
	if cfg.Traceback {
		ex.trimRuns()
	}
	return tr
}

// sideRuns returns the walked runs of job j's side.
func (ex *executor) sideRuns(side, j int) []alignment.Run {
	sp := ex.spans[side][j]
	return ex.runs[side][sp.from:sp.to]
}

// trimRuns releases run buffers past retainRuns, and the join's builder
// with them, once the tile's CIGARs are out.
func (ex *executor) trimRuns() {
	for s := range ex.runs {
		if cap(ex.runs[s]) > retainRuns {
			ex.runs[s], ex.cigar = nil, alignment.Builder{}
		}
	}
}

// tileSchedule is one tile's modeled thread schedule, as schedule
// computes it from the units' memoised costs.
type tileSchedule struct {
	// instr is each thread's deterministic instruction counter.
	instr []int64
	// owner is, per unit, the thread whose execution the tile keeps: on a
	// race the last tied thread, whose result the device writes last.
	owner []int
	// runs is, per unit, how many threads executed it: 1, or every tied
	// thread of a race.
	runs []int
	// stealOps counts work-steal attempts, races the duplicated steals.
	stealOps, races int
}

// schedule models one tile's run on cfg.Threads hardware threads in
// deterministic instruction time, mirroring the IPU's deterministic
// latencies (§4.1.3): whichever thread has the lowest instruction counter
// acts next. cost[u] is unit u's charged instruction bundles; schedule
// reads nothing else of the tile and overwrites all of s.
//
// Without work stealing, units are statically assigned round-robin. With
// work stealing, each thread starts on its statically assigned first unit
// and then steals from the shared list; steals by threads whose counters
// collide grab the same unit — a race in which every tied thread executes
// and pays for it. Eventual work stealing (BusyWaitVariance) adds a
// thread-unique busy-wait so subsequent steals diverge.
func schedule(cost []int64, cfg Config, s *tileSchedule) {
	threads := cfg.Threads
	s.instr = resized(s.instr, threads)
	s.owner = resized(s.owner, len(cost))
	s.runs = resized(s.runs, len(cost))
	s.stealOps, s.races = 0, 0
	instr := s.instr
	run := func(th, u int) {
		instr[th] += cost[u]
		s.owner[u] = th
		s.runs[u]++
	}

	if !cfg.WorkStealing {
		for u := range cost {
			run(u%threads, u)
		}
		return
	}
	// Eventual work stealing staggers threads with a thread-unique busy
	// wait so their deterministic counters rarely collide (§4.1.3); plain
	// racy stealing starts everyone in lockstep.
	if cfg.BusyWaitVariance {
		for th := range instr {
			instr[th] += stealJitter(th, -1-th)
		}
	}
	// Static initial assignment: thread th begins with unit th.
	next := 0
	for ; next < threads && next < len(cost); next++ {
		run(next, next)
	}
	stealCost := int64(cfg.Cost.StealInstr + 0.5)
	for ; next < len(cost); next++ {
		// The thread(s) with the lowest deterministic counter reach the
		// steal swap first; exact ties race and take the same unit. A
		// thread's counter changes only on its own turn, so comparing in
		// place still sees every tie.
		low := slices.Min(instr)
		for th := range instr {
			if instr[th] != low {
				continue
			}
			instr[th] += stealCost
			if cfg.BusyWaitVariance {
				// The thread-unique busy wait makes every steal take a
				// slightly different, iteration-dependent time, so
				// counters that once collided diverge instead of staying
				// in perpetual lockstep (§4.1.3). A small deterministic
				// hash stands in for the loop's timing variance.
				instr[th] += stealJitter(th, s.stealOps)
			}
			run(th, next)
			s.stealOps++
		}
		s.races += s.runs[next] - 1
	}
	// Every thread's final steal attempt finds the list empty.
	for th := range instr {
		instr[th] += stealCost
	}
}

// stealJitter is the deterministic per-steal busy-wait duration: a small
// hash of the thread id and steal ordinal standing in for the busy-wait
// loop's timing variance (1–1024 instruction bundles, ≈ at most 4.6 µs of
// thread time — "small" in the paper's sense, §4.1.3, yet wide enough
// that counter collisions become as rare as the paper's 18 per 1.13 M
// alignments).
func stealJitter(th, n int) int64 {
	x := uint64(th+1)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return int64(x>>54) + 1
}

// runUnit executes one unit's extension sides, records their results in
// o, adds one execution's device counters to c, and returns the charged
// instruction cost.
func (ex *executor) runUnit(t *TileWork, cfg Config, u unit, o *AlignOut, c *Counters, tr *tileResult) int64 {
	var cost int64
	for side := u.from; side < u.to; side++ {
		cost += ex.runSide(t, cfg, u.job, side, o, c, tr)
	}
	return cost
}

// runSide executes one extension side of job j, records its result in o,
// adds its device counters to c, and returns its charged instruction cost.
//
// With Config.Traceback, an ungated, core.FusedEligible side runs one host
// sweep — the recording sweep, whose Result is the score sweep's — however
// the modeled device schedules it: Config.fusedExtension decides only the
// charge, one DP sweep when the device fuses and two (score pass, then
// second pass) when the arena is over budget. If that recording fails on
// a side the device would have scored first, the side is scored after
// all, so its counters and charge are the score pass's, as on the device,
// whose second pass is what failed. Every other traced side keeps its
// score-pass Result for a recording replay after it: at once, or with the
// score gate active deferred until the schedule has run.
func (ex *executor) runSide(t *TileWork, cfg Config, j, side int, o *AlignOut, c *Counters, tr *tileResult) int64 {
	job := &t.Jobs[j]
	h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
	sd := &sides[side]
	hOff, vOff, lh, lv := sd.at(job, h, v)
	var r core.Result
	var replay int64 // the modeled second pass's charge
	if cfg.Traceback && !cfg.traceGated() && core.FusedEligible(lh, lv, cfg.Params) {
		fused := cfg.fusedExtension(lh, lv)
		var trc core.Trace
		var err error
		if r, trc, err = ex.recordSide(j, side, h, v, hOff, vOff, cfg.Params); err == nil {
			ex.keepTrace(j, side, trc, tr)
			if !fused {
				replay = instrCost(cfg, r.Stats)
			}
		} else {
			failTrace(err, &ex.failed[j], tr)
			if fused {
				return 0
			}
			r = sd.score(&ex.ws, h, v, hOff, vOff, cfg.Params)
		}
	} else {
		r = sd.score(&ex.ws, h, v, hOff, vOff, cfg.Params)
		if cfg.Traceback {
			ex.scored[side][j] = r
			if !cfg.traceGated() {
				replay = ex.replaySide(t, cfg, j, side, tr)
			}
		}
	}
	sd.place(o, hOff, vOff, r)
	accumulate(o, c, r.Stats)
	return instrCost(cfg, r.Stats) + replay
}

// replaySide runs one side's recording as a second pass after a separate
// score pass — the path of gated runs and of narrow-tier extensions —
// cross-checks its Score/EndH/EndV against the side's score-pass Result
// and keeps its trace. It returns the extra instruction cost charged for
// the replay (one more DP sweep), or 0 on failure — a trace overflow degrades the one comparison via failed, while a
// divergence, a corrupt trace or a path that does not re-price to its
// score lands in tr.err and fails the batch loudly rather than shipping a
// wrong alignment.
func (ex *executor) replaySide(t *TileWork, cfg Config, j, side int, tr *tileResult) int64 {
	job := &t.Jobs[j]
	h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
	sd := &sides[side]
	hOff, vOff, _, _ := sd.at(job, h, v)
	_, trc, err := ex.recordSide(j, side, h, v, hOff, vOff, cfg.Params)
	r := &ex.scored[side][j]
	if err == nil && (trc.Score != r.Score || trc.EndH != r.EndH || trc.EndV != r.EndV) {
		err = fmt.Errorf("ipukernel: %s traceback of comparison %d diverged: replay (%d,%d,%d) vs kernel (%d,%d,%d)",
			sd.name, job.GlobalID, trc.Score, trc.EndH, trc.EndV, r.Score, r.EndH, r.EndV)
	}
	if err != nil {
		failTrace(err, &ex.failed[j], tr)
		return 0
	}
	ex.keepTrace(j, side, trc, tr)
	return instrCost(cfg, r.Stats)
}

// recordSide runs the recording sweep of job j's side, appends its walked
// runs to the side's run buffer and notes where they lie.
func (ex *executor) recordSide(j, side int, h, v []byte, hOff, vOff int, p core.Params) (core.Result, core.Trace, error) {
	from := len(ex.runs[side])
	r, trc, runs, err := sides[side].record(&ex.ws, h, v, hOff, vOff, p, ex.runs[side])
	ex.runs[side], ex.spans[side][j] = runs, span{from, len(runs)}
	return r, trc, err
}

// keepTrace stores one side's trace footprint and raises the tile's peak.
func (ex *executor) keepTrace(j, side int, trc core.Trace, tr *tileResult) {
	ex.traceBytes[side][j] = trc.TraceBytes
	tr.PeakTracebackBytes = max(tr.PeakTracebackBytes, trc.TraceBytes)
}

// failTrace routes a recording error: a trace overflow degrades its one
// comparison (Failed placeholder), anything else is a kernel bug and
// fails the batch loudly.
func failTrace(err error, failed *bool, tr *tileResult) {
	if errors.Is(err, core.ErrTraceTooLarge) {
		*failed = true
		return
	}
	if tr.err == nil {
		tr.err = err
	}
}

// accumulate folds one extension's trace into its result and into the
// device counters c of one execution.
func accumulate(o *AlignOut, c *Counters, s core.Stats) {
	o.Cells += s.Cells
	o.Antidiagonals += s.Antidiagonals
	if s.MaxLiveBand > o.MaxLiveBand {
		o.MaxLiveBand = s.MaxLiveBand
	}
	o.Clamped = o.Clamped || s.Clamped
	c.Cells += s.Cells
	c.SumBand += s.SumComputedBand
	c.Antidiags += int64(s.Antidiagonals)
	switch {
	case s.Narrow:
		c.NarrowExtensions++
	case s.Promoted:
		c.PromotedExtensions++
	default:
		c.WideExtensions++
	}
}

// instrCost converts an extension trace into thread-instruction bundles
// under the calibrated cost model, applying the dual-issue speedup last.
func instrCost(cfg Config, s core.Stats) int64 {
	c := cfg.Cost
	raw := c.InstrPerAlignment +
		float64(s.Antidiagonals)*c.InstrPerIteration +
		float64(s.Cells)*c.InstrPerCell
	if cfg.DualIssue {
		raw /= c.DualIssueSpeedup
	}
	return int64(raw + 0.5)
}
