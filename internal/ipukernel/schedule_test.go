package ipukernel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/synth"
)

// scheduleBatch is a two-tile batch that exercises the modeled schedule:
// tile 0 holds 24 copies of one comparison (identical unit costs, so
// deterministic counters tie and racy steals fire), tile 1 twelve
// distinct comparisons of varying cost. Every pair is length long with
// the seed in the middle, so each traced extension fuses at 400
// (≈ 190×190, 12 KiB arena bound) and replays at 600 (≈ 290×290, 25 KiB,
// over fusedTraceBudget).
func scheduleBatch(t *testing.T, length int) *Batch {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 13, Length: length, ErrorRate: 0.15, SeedLen: 17, Seed: 7,
	})
	arena, _ := d.Spine()
	same := TileWork{Slabs: slabViews(arena)}
	c0 := d.Comparisons[0]
	same.Seqs = append(same.Seqs, arena.Ref(c0.H), arena.Ref(c0.V))
	for k := 0; k < 24; k++ {
		same.Jobs = append(same.Jobs, SeedJob{
			HLocal: 0, VLocal: 1, SeedH: c0.SeedH, SeedV: c0.SeedV, SeedLen: c0.SeedLen, GlobalID: int32(k),
		})
	}
	mixed := TileWork{Slabs: slabViews(arena)}
	for i, c := range d.Comparisons[1:] {
		mixed.Seqs = append(mixed.Seqs, arena.Ref(c.H), arena.Ref(c.V))
		mixed.Jobs = append(mixed.Jobs, SeedJob{
			HLocal: 2 * i, VLocal: 2*i + 1,
			SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: int32(24 + i),
		})
	}
	return &Batch{Tiles: []TileWork{same, mixed}}
}

// pinGateScore is the gated runs' cutoff: it traces some comparisons of
// scheduleBatch's mixed tile and skips the rest.
const pinGateScore = 300

// TestModeledSchedulePinned holds the modeled schedule to counters
// recorded before execution and scheduling were split: every counter of
// a racy, an eventual-stealing, a gated-traceback racy, a fused-traceback
// racy and a replay-traceback racy run, each tile's thread maximum and
// the modeled seconds, bit for bit. A race's duplicate is device work, so
// Cells, SumBand and Antidiags still include it. The
// last two differ only in pair length, which puts every extension on one
// side of fusedTraceBudget; they were recorded with the fused and replay
// schedules forced, which the length now selects.
func TestModeledSchedulePinned(t *testing.T) {
	for _, run := range []struct {
		name      string
		length    int
		mut       func(*Config)
		c         Counters
		tileInstr []int64
		seconds   uint64
	}{
		{"racy", 400, func(c *Config) { c.LRSplit, c.WorkStealing = true, true },
			Counters{HostBytesIn: 11456, HostBytesOut: 1152, UniqueSeqBytesIn: 10400, TheoreticalCells: 5760000,
				Cells: 1385307, SumBand: 1385307, Antidiags: 105984, Races: 204, StealOps: 264, MaxSRAM: 19744},
			[]int64{1121883, 109424}, 0x3f74bc8c7171001b},
		{"eventual", 400, func(c *Config) { c.LRSplit, c.WorkStealing, c.BusyWaitVariance = true, true, true },
			Counters{HostBytesIn: 11456, HostBytesOut: 1152, UniqueSeqBytesIn: 10400, TheoreticalCells: 5760000,
				Cells: 362451, SumBand: 362451, Antidiags: 27648, StealOps: 60, MaxSRAM: 19744},
			[]int64{218924, 112085}, 0x3f5034b342811e19},
		{"gated-traceback-racy", 400, func(c *Config) { c.WorkStealing, c.Traceback, c.TraceMinScore = true, true, pinGateScore },
			Counters{HostBytesIn: 11456, HostBytesOut: 13400, UniqueSeqBytesIn: 10400, TheoreticalCells: 5760000,
				Cells: 1264971, SumBand: 1264971, Antidiags: 96768, Races: 90, StealOps: 114, MaxSRAM: 32145,
				PeakTracebackBytes: 4368, TracebackBytes: 251037,
				TracedExtensions: 58, TraceSkippedExtensions: 14}, []int64{2027338, 211510}, 0x3f82bbdd8eb23687},
		{"fused-traceback-racy", 400, func(c *Config) { c.LRSplit, c.WorkStealing, c.Traceback = true, true, true },
			Counters{HostBytesIn: 11456, HostBytesOut: 16500, UniqueSeqBytesIn: 10400, TheoreticalCells: 5760000,
				Cells: 1385307, SumBand: 1385307, Antidiags: 105984, Races: 204, StealOps: 264, MaxSRAM: 94150,
				PeakTracebackBytes: 4414, TracebackBytes: 312114,
				TracedExtensions: 72}, []int64{1121883, 109424}, 0x3f74bc8cf8246195},
		{"replay-traceback-racy", 600, func(c *Config) { c.LRSplit, c.WorkStealing, c.Traceback = true, true, true },
			Counters{HostBytesIn: 16656, HostBytesOut: 25000, UniqueSeqBytesIn: 15600, TheoreticalCells: 12960000,
				Cells: 2155302, SumBand: 2155302, Antidiags: 161184, Races: 204, StealOps: 264, MaxSRAM: 53719,
				PeakTracebackBytes: 6800, TracebackBytes: 477220,
				TracedExtensions: 72}, []int64{3466596, 337656}, 0x3f900401912b760d},
	} {
		cfg := dnaCfg(15)
		run.mut(&cfg)
		res, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), scheduleBatch(t, run.length), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters != run.c {
			t.Errorf("%s: counters\n got %+v\nwant %+v", run.name, res.Counters, run.c)
		}
		if !slices.Equal(res.TileInstr, run.tileInstr) {
			t.Errorf("%s: tile instructions %v, want %v", run.name, res.TileInstr, run.tileInstr)
		}
		if got := math.Float64bits(res.Seconds); got != run.seconds {
			t.Errorf("%s: modeled seconds %v (%#x), want %v", run.name, res.Seconds, got, math.Float64frombits(run.seconds))
		}
	}
}

// TestResultsIndependentOfSchedule: each unit's kernel runs once whatever
// the schedule, so every AlignOut field — Cells, Antidiagonals,
// MaxLiveBand, Cigar and TraceBytes included — is the same under every
// thread count, LR split and stealing mode, racy steals included.
func TestResultsIndependentOfSchedule(t *testing.T) {
	traces := []struct {
		name   string
		length int
		mut    func(*Config)
	}{
		{"traceback off", 400, func(c *Config) {}},
		{"ungated fused", 400, func(c *Config) { c.Traceback = true }},
		{"ungated replay", 600, func(c *Config) { c.Traceback = true }},
		{"gated", 400, func(c *Config) { c.Traceback, c.TraceMinScore = true, pinGateScore }},
	}
	stealing := []struct {
		name                    string
		workStealing, busyWaits bool
	}{{"static", false, false}, {"racy", true, false}, {"eventual", true, true}}
	for _, tc := range traces {
		var ref []AlignOut
		var refName string
		for _, threads := range []int{1, 6} {
			for _, lr := range []bool{false, true} {
				for _, st := range stealing {
					cfg := dnaCfg(15)
					tc.mut(&cfg)
					cfg.Threads, cfg.LRSplit = threads, lr
					cfg.WorkStealing, cfg.BusyWaitVariance = st.workStealing, st.busyWaits
					name := fmt.Sprintf("%s threads=%d lr=%v %s", tc.name, threads, lr, st.name)
					res, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), scheduleBatch(t, tc.length), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ref == nil {
						ref, refName = res.Out, name
						continue
					}
					for i := range ref {
						if res.Out[i] != ref[i] {
							t.Fatalf("%s: result %d\n got %+v\n%s: %+v", name, i, res.Out[i], refName, ref[i])
						}
					}
				}
			}
		}
	}
}

// TestScheduleThreeWayTie drives the schedule on synthetic costs: a
// single steal, a two-way race and a three-way race, each duplicate
// charged to every tied thread and the unit owned by the last of them.
// Every steal attempt costs the calibrated StealInstr (48 bundles).
func TestScheduleThreeWayTie(t *testing.T) {
	if steal := int64(platform.DefaultKernelCost.StealInstr + 0.5); steal != 48 {
		t.Fatalf("steal cost %d, want 48", steal)
	}
	cost := []int64{100, 100, 90, 40, 30, 20}
	cfg := Config{Threads: 3}
	var s tileSchedule

	schedule(cost, &cfg, &s)
	if want := []int64{140, 130, 110}; !slices.Equal(s.instr, want) {
		t.Errorf("static: instr %v, want %v", s.instr, want)
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !slices.Equal(s.owner, want) {
		t.Errorf("static: owner %v, want %v", s.owner, want)
	}
	if s.stealOps != 0 || s.races != 0 {
		t.Errorf("static: stealOps %d races %d, want 0 0", s.stealOps, s.races)
	}

	// Threads start on units 0–2 at [100 100 90]. Unit 3: thread 2 alone
	// (→ 90+48+40 = 178). Unit 4: threads 0 and 1 tie at 100 (→ 178 each).
	// Unit 5: all three tie at 178 (→ 246). The final empty steal adds 48
	// each.
	cfg.WorkStealing = true
	schedule(cost, &cfg, &s)
	if want := []int64{294, 294, 294}; !slices.Equal(s.instr, want) {
		t.Errorf("stealing: instr %v, want %v", s.instr, want)
	}
	if want := []int{0, 1, 2, 2, 1, 2}; !slices.Equal(s.owner, want) {
		t.Errorf("stealing: owner %v, want %v", s.owner, want)
	}
	if want := []int{1, 1, 1, 1, 2, 3}; !slices.Equal(s.runs, want) {
		t.Errorf("stealing: runs %v, want %v", s.runs, want)
	}
	if s.stealOps != 6 || s.races != 3 {
		t.Errorf("stealing: stealOps %d races %d, want 6 3", s.stealOps, s.races)
	}

	// Fewer units than threads: nothing to steal, but every thread still
	// pays the empty-list attempt.
	schedule(cost[:2], &cfg, &s)
	if want := []int64{148, 148, 48}; !slices.Equal(s.instr, want) {
		t.Errorf("short list: instr %v, want %v", s.instr, want)
	}
	if s.stealOps != 0 || s.races != 0 || len(s.owner) != 2 {
		t.Errorf("short list: stealOps %d races %d owners %d, want 0 0 2", s.stealOps, s.races, len(s.owner))
	}
}
