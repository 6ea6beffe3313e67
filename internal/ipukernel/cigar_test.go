package ipukernel

import (
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
)

// cigarJob is one comparison of a hand-built tile.
type cigarJob struct {
	h, v []byte
	seed core.Seed
}

// cigarTile puts jobs into one standalone tile, in order.
func cigarTile(jobs []cigarJob) *TileWork {
	t := &TileWork{}
	for i, j := range jobs {
		hi, vi := t.addSeq(j.h), t.addSeq(j.v)
		t.Jobs = append(t.Jobs, SeedJob{
			HLocal: hi, VLocal: vi, SeedH: j.seed.H, SeedV: j.seed.V, SeedLen: j.seed.Len, GlobalID: int32(i),
		})
	}
	return t
}

// mutatedPair is a pair of length-n sequences under prof with a k-mer
// seed planted at fraction at of each (0 puts it at the start, 1 at the
// end, so one extension side is empty).
func mutatedPair(rng *rand.Rand, n, k int, at float64, prof synth.MutationProfile) cigarJob {
	h := synth.RandDNA(rng, n)
	if prof.Protein {
		h = synth.RandProtein(rng, n)
	}
	v := prof.Apply(rng, h)
	s := core.Seed{H: int(at * float64(n-k)), V: int(at * float64(len(v)-k)), Len: k}
	synth.PlantSeed(h, v, s.H, s.V, k)
	return cigarJob{h, v, s}
}

// dnaCigarJobs is a tile's worth of DNA comparisons: centred seeds, and
// one seed at each end of its sequences.
func dnaCigarJobs(rng *rand.Rand) []cigarJob {
	var jobs []cigarJob
	for i := 0; i < 9; i++ {
		at := 0.5
		switch i {
		case 2:
			at = 0
		case 6:
			at = 1
		}
		jobs = append(jobs, mutatedPair(rng, 300+40*i, 17, at, synth.UniformDNA(0.15)))
	}
	return jobs
}

// aminoAcids is the protein alphabet synth draws from.
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// proteinCigarJobs is a tile of BLOSUM62 comparisons whose quasi-exact
// seeds carry mismatched ('X') columns, as PASTIS seeds may.
func proteinCigarJobs(rng *rand.Rand) []cigarJob {
	var jobs []cigarJob
	for i := 0; i < 6; i++ {
		prof := synth.MutationProfile{Sub: 0.2, Ins: 0.03, Del: 0.03, Protein: true}
		j := mutatedPair(rng, 180+30*i, 6, []float64{0.5, 0, 1}[i%3], prof)
		// Seed columns 1 and 4 of v become other amino acids.
		for _, c := range []int{1, 4} {
			at := j.seed.V + c
			j.v[at] = aminoAcids[(strings.IndexByte(aminoAcids, j.v[at])+1+i)%len(aminoAcids)]
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// publicCigar is one comparison's CIGAR composed from the public entry
// points: TracebackLeft's and TracebackRight's Cigars with the seed's
// columns between them (JoinCigar with no runs on either side), joined
// run by run through Builder.Append, which merges same-op runs at the
// junctions.
func publicCigar(t *testing.T, h, v []byte, s core.Seed, p core.Params) alignment.Cigar {
	t.Helper()
	var ws core.Workspace
	l, err := ws.TracebackLeft(h, v, s.H, s.V, p)
	if err != nil {
		t.Fatalf("TracebackLeft: %v", err)
	}
	r, err := ws.TracebackRight(h, v, s.H+s.Len, s.V+s.Len, p)
	if err != nil {
		t.Fatalf("TracebackRight: %v", err)
	}
	var b alignment.Builder
	core.JoinCigar(&b, h, v, s, nil, nil)
	seed := b.Cigar()
	for _, part := range []alignment.Cigar{l.Cigar, seed, r.Cigar} {
		for _, m := range cigarRun.FindAllStringSubmatch(string(part), -1) {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("cigar %q: %v", part, err)
			}
			b.Append(alignment.Op(m[2][0]), n)
		}
	}
	return b.Cigar()
}

// cigarRun is one <length><op> run of a CIGAR string.
var cigarRun = regexp.MustCompile(`(\d+)([=XID])`)

// runCigarTile runs tile on a fresh executor and then once more on the
// same (now warm) executor, requires the two runs to agree, and returns
// the outputs.
func runCigarTile(t *testing.T, tile *TileWork, cfg Config) []AlignOut {
	t.Helper()
	cfg = cfg.withDefaults(platform.GC200)
	ex := &executor{}
	var out [2][]AlignOut
	for k := range out {
		out[k] = make([]AlignOut, len(tile.Jobs))
		if tr := runTile(tile, &cfg, ex, out[k]); tr.err != nil {
			t.Fatalf("runTile: %v", tr.err)
		}
	}
	if !slices.Equal(out[0], out[1]) {
		t.Fatal("a warm executor's outputs differ from a fresh one's")
	}
	return out[0]
}

// checkTileCigars holds every traced comparison of out to the public
// composition and to alignment.ScoreOf, and returns how many it checked.
func checkTileCigars(t *testing.T, tile *TileWork, cfg Config, out []AlignOut) int {
	t.Helper()
	p := cfg.Params
	traced := 0
	for j, o := range out {
		if o.Failed || o.Score < cfg.TraceMinScore {
			continue
		}
		job := tile.Jobs[j]
		h, v := tile.Seq(job.HLocal), tile.Seq(job.VLocal)
		seed := core.Seed{H: job.SeedH, V: job.SeedV, Len: job.SeedLen}
		if want := publicCigar(t, h, v, seed, p); o.Cigar != want {
			t.Errorf("comparison %d: tile cigar %q, public join %q", j, o.Cigar, want)
			continue
		}
		got, err := alignment.ScoreOf(h[o.BegH:o.EndH], v[o.BegV:o.EndV], o.Cigar, p.Scorer, p.Gap, 0)
		if err != nil || got != o.Score {
			t.Errorf("comparison %d: cigar %q re-prices to %d (%v), kernel scored %d", j, o.Cigar, got, err, o.Score)
		}
		traced++
	}
	return traced
}

// TestTileCigarMatchesPublicJoin: the tile joins each traced comparison's
// walked runs into one CIGAR itself. That CIGAR must be the one the public
// entry points compose — TracebackLeft, the seed's columns, TracebackRight
// joined run by run — and re-price through alignment.ScoreOf to the
// kernel's score, with and without LR splitting, under the score gate,
// for seeds at either end of their sequences (an empty side) and for
// BLOSUM62 seeds with mismatched columns.
func TestTileCigarMatchesPublicJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dna := cigarTile(dnaCigarJobs(rng))
	protein := cigarTile(proteinCigarJobs(rng))
	proteinCfg := Config{Params: core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49, DeltaB: 256}}
	for _, run := range []struct {
		name string
		tile *TileWork
		cfg  Config
		mut  func(*Config)
	}{
		{"dna", dna, dnaCfg(15), func(c *Config) {}},
		{"dna/lrsplit", dna, dnaCfg(15), func(c *Config) { c.LRSplit, c.WorkStealing = true, true }},
		{"protein", protein, proteinCfg, func(c *Config) {}},
		{"protein/lrsplit", protein, proteinCfg, func(c *Config) { c.LRSplit = true }},
	} {
		t.Run(run.name, func(t *testing.T) {
			cfg := run.cfg
			cfg.Traceback = true
			run.mut(&cfg)
			out := runCigarTile(t, run.tile, cfg)
			if n := checkTileCigars(t, run.tile, cfg, out); n != len(out) {
				t.Fatalf("%d of %d comparisons traced", n, len(out))
			}

			// The gate at the median score: the comparisons at or above it
			// are traced, the rest carry no CIGAR.
			scores := make([]int, len(out))
			for j, o := range out {
				scores[j] = o.Score
			}
			slices.Sort(scores)
			cfg.TraceMinScore = scores[len(scores)/2]
			gated := runCigarTile(t, run.tile, cfg)
			traced := checkTileCigars(t, run.tile, cfg, gated)
			for j, o := range gated {
				if o.Score < cfg.TraceMinScore && o.Cigar != "" {
					t.Errorf("gated comparison %d (score %d < %d) carries a cigar", j, o.Score, cfg.TraceMinScore)
				}
			}
			if traced == 0 || traced == len(gated) {
				t.Fatalf("the gate traced %d of %d comparisons, want some of them", traced, len(gated))
			}
		})
	}
}

// TestTileCigarBesideOverflow: a comparison whose recording overflows
// (core.ErrTraceTooLarge) is degraded to a Failed placeholder, and its
// neighbours' CIGARs — before and after it in the tile, on both sides —
// are still their own.
func TestTileCigarBesideOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	jobs := dnaCigarJobs(rng)
	const big = 4
	jobs[big] = mutatedPair(rng, 6000, 17, 0.5, synth.UniformDNA(0.04))
	tile := cigarTile(jobs)
	for _, lrsplit := range []bool{false, true} {
		cfg := dnaCfg(15)
		cfg.Traceback, cfg.LRSplit = true, lrsplit
		// Every other comparison records at most 4 cells per trace byte.
		limit := 0
		for j, o := range runCigarTile(t, tile, cfg) {
			if j != big {
				limit = max(limit, 4*o.TraceBytes)
			}
		}
		restore := core.SetTraceCellCapForTest(int64(limit))
		out := runCigarTile(t, tile, cfg)
		restore()
		for j, o := range out {
			if o.Failed != (j == big) {
				t.Fatalf("lrsplit=%v: comparison %d Failed=%v, want only %d failed", lrsplit, j, o.Failed, big)
			}
		}
		if n := checkTileCigars(t, tile, cfg, out); n != len(out)-1 {
			t.Fatalf("lrsplit=%v: %d comparisons checked, want %d", lrsplit, n, len(out)-1)
		}
	}
}
