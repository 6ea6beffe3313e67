package driver

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// shortReadsData generates a short-read overlap set whose extensions are
// small enough that most of them fuse.
func shortReadsData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "drv-short", GenomeLen: 20000, Coverage: 8, MeanReadLen: 350,
		MinReadLen: 150, MaxReadLen: 450,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 120, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// traceScores runs the score-only configuration and returns the sorted
// comparison scores, for deriving percentile gate cutoffs.
func traceScores(t *testing.T, d *workload.Dataset, cfg Config) []int {
	t.Helper()
	rep := mustRun(t, d, cfg)
	scores := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		scores[i] = r.Score
	}
	sort.Ints(scores)
	return scores
}

// TestTraceFuseRuleOracle: one traced run over long reads, whose
// extensions fall on both sides of the fused-arena budget, so the one
// fuse-or-replay rule sends some through the fused recording and the rest
// through the score pass and a replay. Every result must equal the
// score-only run's in every score field and carry a CIGAR that re-scores
// to it, with every extension counted as traced.
// That the two paths record bit-identical traces is pinned per extension
// by core's TestFusedDifferentialOracle.
func TestTraceFuseRuleOracle(t *testing.T) {
	d := readsData(t, 21, 40)
	off := testCfg(2, true)
	on := off
	on.Traceback = true

	k := on.Normalized().Kernel
	fused, replayed := 0, 0
	for _, c := range d.Comparisons {
		hn, vn := d.SeqLen(c.H), d.SeqLen(c.V)
		for _, side := range [][2]int{{c.SeedH, c.SeedV}, {hn - c.SeedH - c.SeedLen, vn - c.SeedV - c.SeedLen}} {
			if f, _ := k.TraceCharges(side[0], side[1]); f > 0 {
				fused++
			} else {
				replayed++
			}
		}
	}
	if replayed == 0 || fused == 0 {
		t.Fatalf("%d fused and %d replayed extensions, want both paths", fused, replayed)
	}

	want, err := Run(d, off)
	if err != nil {
		t.Fatalf("score-only run: %v", err)
	}
	got, err := Run(d, on)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if got.TracedExtensions != 2*len(d.Comparisons) || got.TraceSkippedExtensions != 0 {
		t.Fatalf("counters traced=%d skipped=%d, want %d/0",
			got.TracedExtensions, got.TraceSkippedExtensions, 2*len(d.Comparisons))
	}
	p := on.Kernel.Params
	for i, r := range got.Results {
		c := d.Comparisons[i]
		h, v := d.Seq(c.H), d.Seq(c.V)
		recon, err := alignment.ScoreOf(h[r.BegH:r.EndH], v[r.BegV:r.EndV], r.Cigar, p.Scorer, p.Gap, p.GapOpen)
		if err != nil || recon != r.Score || r.TraceBytes <= 0 {
			t.Fatalf("comparison %d: cigar %q re-scores to %d (err %v), kernel %d, trace bytes %d",
				i, r.Cigar, recon, err, r.Score, r.TraceBytes)
		}
		r.Cigar, r.TraceBytes = "", 0
		if r != want.Results[i] {
			t.Fatalf("comparison %d differs from the score-only run:\ntraced:     %+v\nscore-only: %+v",
				i, r, want.Results[i])
		}
	}
}

// TestTraceGateCacheComposition: gated and ungated runs must never share
// cache entries (their kernel fingerprints differ), and a rerun under the
// same configuration must hit its own warm entries and reproduce its
// results exactly.
func TestTraceGateCacheComposition(t *testing.T) {
	d := shortReadsData(t, 23, 30)
	scores := traceScores(t, d, testCfg(1, true))
	cut := scores[len(scores)/2]

	cache := newMapCache()
	base := testCfg(1, true)
	base.Traceback = true
	base.Cache = cache

	u1 := mustRun(t, d, base)
	if u1.CacheHits != 0 {
		t.Fatalf("cold ungated run hit the cache %d times", u1.CacheHits)
	}
	u2 := mustRun(t, d, base)
	if u2.CacheHits == 0 {
		t.Fatal("warm ungated rerun had no cache hits")
	}

	gated := base
	gated.Kernel.TraceMinScore = cut
	g1 := mustRun(t, d, gated)
	if g1.CacheHits != 0 {
		t.Fatalf("gated run shared %d entries with the ungated fill", g1.CacheHits)
	}
	g2 := mustRun(t, d, gated)
	if g2.CacheHits == 0 {
		t.Fatal("warm gated rerun had no cache hits")
	}
	for i := range g1.Results {
		if g2.Results[i] != g1.Results[i] {
			t.Fatalf("comparison %d differs between cold and warm gated runs", i)
		}
	}

	// Score-only runs ignore the gate: a gated fingerprint with traceback
	// off must equal the plain score-only fingerprint, so score-only
	// workloads keep sharing entries.
	plain := testCfg(1, true)
	gatedOff := plain
	gatedOff.Kernel.TraceMinScore = cut
	a := KernelFingerprint(plain.Normalized().Kernel)
	b := KernelFingerprint(gatedOff.Normalized().Kernel)
	if a != b {
		t.Fatal("the trace gate changed the score-only kernel fingerprint")
	}
}

// traceCapDataset hand-builds a dataset of small comparisons plus one
// oversized one whose traceback recording blows a tiny injected cell
// cap while the small ones stay under it.
func traceCapDataset(big int) (*workload.Dataset, int) {
	rng := rand.New(rand.NewSource(99))
	const alpha = "ACGT"
	gen := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alpha[rng.Intn(4)]
		}
		return s
	}
	mut := func(h []byte, rate float64) []byte {
		v := append([]byte(nil), h...)
		for i := range v {
			if rng.Float64() < rate {
				v[i] = alpha[rng.Intn(4)]
			}
		}
		return v
	}
	var seqs [][]byte
	var cmps []workload.Comparison
	addPair := func(n int) {
		h := gen(n)
		v := mut(h, 0.03)
		k := 17
		s := n/2 - k/2
		copy(v[s:s+k], h[s:s+k])
		i := len(seqs)
		seqs = append(seqs, h, v)
		cmps = append(cmps, workload.Comparison{
			H: i, V: i + 1, SeedH: s, SeedV: s, SeedLen: k,
		})
	}
	for i := 0; i < 4; i++ {
		addPair(80)
	}
	bigIdx := len(cmps)
	addPair(big)
	addPair(80)
	return workload.MustPack("trace-cap", seqs, cmps, false), bigIdx
}

// TestTraceTooLargeDegradesSingleComparison is the propagation-bugfix
// regression: a traceback recording that overflows the cell cap must
// surface as that one comparison failing (AlignOut.Failed), not poison
// sibling comparisons on the tile or fail the batch — and the degraded
// placeholder must never enter the result cache. The oversized pair's
// length picks the path: its extensions replay at 2 kb and fuse at 400 b,
// and the cap is set under what each records. The capped run's device
// counters and modeled wall time are pinned to the values of a kernel that
// scored every replayed side before recording it: the host records such a
// side in one sweep, and when that sweep overflows it scores the side
// after all, so the model charges exactly the score pass the device ran.
//
// The gated rows' pins are those of a kernel that scored every side and
// recorded only the comparisons passing the gate. In "gated" the cutoff
// lies between the siblings' scores and the oversized comparison's, which
// passes and degrades while the siblings deliver score-only results. In
// "gated-out" the cutoff is above every score: the oversized comparison's
// recording still overflows on the host, yet the gate, tested first, makes
// it a score-only result and no failure.
func TestTraceTooLargeDegradesSingleComparison(t *testing.T) {
	for _, tc := range []struct {
		name     string
		big      int
		cap      int64
		fused    bool
		cut      int  // TraceMinScore
		degraded bool // the oversized comparison passes the gate and fails
		counters ipukernel.Counters
		wall     uint64
	}{
		{"replay", 2000, 6_000, false, 0, true, ipukernel.Counters{HostBytesIn: 5400, HostBytesOut: 252,
			UniqueSeqBytesIn: 4720, TheoreticalCells: 4032000, Cells: 52693, SumBand: 52693, Antidiags: 4608,
			MaxSRAM: 159348, PeakTracebackBytes: 690, TracebackBytes: 6716,
			TracedExtensions: 10}, 0x3f4ebba2482f2539},
		{"fused", 400, 2_000, true, 0, true, ipukernel.Counters{HostBytesIn: 2200, HostBytesOut: 252,
			UniqueSeqBytesIn: 1520, TheoreticalCells: 192000, Cells: 6237, SumBand: 6237, Antidiags: 640,
			MaxSRAM: 84602, PeakTracebackBytes: 690, TracebackBytes: 6721,
			TracedExtensions: 10}, 0x3f40fb7e52dbb6e2},
		{"gated", 2000, 6_000, false, 1000, true, ipukernel.Counters{HostBytesIn: 5400, HostBytesOut: 192,
			UniqueSeqBytesIn: 4720, TheoreticalCells: 4032000, Cells: 52693, SumBand: 52693, Antidiags: 4608,
			MaxSRAM: 159348, TraceSkippedExtensions: 10}, 0x3f4ebb97f524c0cb},
		{"gated-out", 2000, 6_000, false, 1 << 30, false, ipukernel.Counters{HostBytesIn: 5400, HostBytesOut: 192,
			UniqueSeqBytesIn: 4720, TheoreticalCells: 4032000, Cells: 52693, SumBand: 52693, Antidiags: 4608,
			MaxSRAM: 159348, TraceSkippedExtensions: 12}, 0x3f4ebb97f524c0cb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, bigIdx := traceCapDataset(tc.big)
			cache := newMapCache()
			cfg := testCfg(1, false)
			cfg.Traceback = true
			cfg.Kernel.TraceMinScore = tc.cut
			cfg.Cache = cache

			c := d.Comparisons[bigIdx]
			hn, vn := d.SeqLen(c.H), d.SeqLen(c.V)
			kernel := cfg.Normalized().Kernel
			for _, side := range [][2]int{{c.SeedH, c.SeedV}, {hn - c.SeedH - c.SeedLen, vn - c.SeedV - c.SeedLen}} {
				if f, _ := kernel.TraceCharges(side[0], side[1]); (f > 0) != tc.fused {
					t.Fatalf("oversized %d×%d extension fused=%v, want %v", side[0], side[1], f > 0, tc.fused)
				}
			}

			restore := core.SetTraceCellCapForTest(tc.cap)
			rep, err := Run(d, cfg)
			if err != nil {
				restore()
				t.Fatalf("capped run failed as a batch: %v", err)
			}
			if want := map[bool]int{true: 1}[tc.degraded]; rep.PartialFailures != want {
				restore()
				t.Fatalf("want exactly %d degraded comparison, got %d", want, rep.PartialFailures)
			}
			if rep.Counters != tc.counters {
				t.Errorf("capped run counters\n got %+v\nwant %+v", rep.Counters, tc.counters)
			}
			if got := math.Float64bits(rep.WallSeconds); got != tc.wall {
				t.Errorf("capped run modeled wall %v (%#x), want %v", rep.WallSeconds, got, math.Float64frombits(tc.wall))
			}
			for i, r := range rep.Results {
				if i == bigIdx && tc.degraded {
					if !r.Failed || r.Score != 0 || r.Cigar != "" {
						restore()
						t.Fatalf("oversized comparison not a clean Failed placeholder: %+v", r)
					}
					continue
				}
				if r.Failed {
					restore()
					t.Fatalf("comparison %d poisoned by the oversized trace: %+v", i, r)
				}
				if r.Score < tc.cut {
					if r.Cigar != "" || r.Score <= 0 {
						restore()
						t.Fatalf("gated comparison %d not a score-only result: %+v", i, r)
					}
					continue
				}
				if r.Cigar == "" {
					restore()
					t.Fatalf("sibling comparison %d lost its CIGAR", i)
				}
				ci := d.Comparisons[i]
				h, v := d.Seq(ci.H), d.Seq(ci.V)
				if s, err := alignment.ScoreOf(h[r.BegH:r.EndH], v[r.BegV:r.EndV], r.Cigar,
					kernel.Params.Scorer, kernel.Params.Gap, kernel.Params.GapOpen); err != nil || s != r.Score {
					restore()
					t.Fatalf("sibling comparison %d re-prices to %d (err %v), score %d", i, s, err, r.Score)
				}
			}
			restore()

			// With the cap restored and the same warm cache, the big
			// comparison must come back real — proving its Failed
			// placeholder was never cached.
			rep2 := mustRun(t, d, cfg)
			if rep2.PartialFailures != 0 {
				t.Fatalf("uncapped rerun still degraded: %d", rep2.PartialFailures)
			}
			big := rep2.Results[bigIdx]
			if big.Failed || (big.Cigar == "") != (big.Score < tc.cut) || big.Score <= 0 {
				t.Fatalf("uncapped rerun served a stale degraded result: %+v", big)
			}
			if rep2.CacheHits == 0 {
				t.Fatal("uncapped rerun had no cache hits for the small comparisons")
			}
		})
	}
}

// TestRunRejectsUnknownKnobValues: traceback under AlgoAffine, which is
// score-only, fails before any batch runs.
func TestRunRejectsUnknownKnobValues(t *testing.T) {
	d := readsData(t, 24, 8)
	affine := testCfg(1, true)
	affine.Traceback = true
	affine.Kernel.Params.Algo, affine.Kernel.Params.GapOpen = core.AlgoAffine, -2
	if _, err := Run(d, affine); err == nil {
		t.Error("affine traceback: Run succeeded, want an error")
	}
}
