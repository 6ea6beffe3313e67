package xdropipu_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// latticeAxes are the execution strategies the invariant ranges over:
//
//   - corpus: DNA or protein (newLatticeCorpus).
//   - algo: Restricted2 with δb above the band on the paper's optimisation
//     set (two IPUs, partitioning, LR split, eventual work stealing, dual
//     issue, four comparisons a batch), or Standard3 on a bare fleet (one
//     IPU of four tiles, static schedule, three comparisons a batch).
//   - tier, traceback, and the gate (TraceMinScore 0 or the corpus's
//     median oracle score).
//   - dedup, and the result cache: none; cold, holding what the row's
//     configuration stores under the next tier (and, traced, the other
//     gate); or warm, filled by the row's own configuration.
//   - faults: none, transient retried, or permanent (mixed with transient)
//     quarantined to the host path.
//   - layout: one slab, slabs no bigger than the longest sequence, or
//     three slabs spilled to disk.
//   - path: driver.Run; BuildBatches, ExecBatch in reverse batch order on
//     one device, AssemblePlan; an engine; or a service over loopback HTTP.
var latticeAxes = [][]string{
	{"dna", "protein"},
	{"r2", "s3"},
	{"wide", "narrow", "auto"},
	{"untraced", "traced"},
	{"ungated", "gated"},
	{"nodedup", "dedup"},
	{"nocache", "cold", "warm"},
	{"nofault", "transient", "permanent"},
	{"oneslab", "slabs", "spilled"},
	{"run", "staged", "engine", "service"},
}

// latticeExcluded are the value pairs no row may hold: the gate acts only
// on traced runs, a cache implies dedup, only an engine retries or
// quarantines a batch, and a warm job executes no batch a fault could
// reach.
var latticeExcluded = []string{
	"untraced gated", "nodedup cold", "nodedup warm", "transient run", "transient staged",
	"permanent run", "permanent staged", "warm transient", "warm permanent",
}

// latticeRows holds every pair of values latticeExcluded allows, and the
// triple that records on the host's fused path: traced, ungated, wide.
// Rows equal on the first seven axes form a report class: they differ
// only in faults, layout, path and worker count, and report byte for
// byte alike.
var latticeRows = []string{
	"dna r2 wide untraced ungated nodedup nocache nofault oneslab run",
	"dna r2 wide untraced ungated nodedup nocache transient slabs engine",
	"dna r2 wide untraced ungated nodedup nocache permanent oneslab engine",
	"dna s3 narrow traced gated dedup cold permanent spilled service",
	"dna s3 narrow traced gated dedup cold nofault slabs staged",
	"protein r2 auto untraced ungated dedup warm nofault spilled staged",
	"protein r2 auto untraced ungated dedup warm nofault oneslab service",
	"protein s3 auto traced gated nodedup nocache transient oneslab engine",
	"protein s3 auto traced gated nodedup nocache permanent slabs service",
	"protein r2 narrow untraced ungated dedup cold permanent oneslab engine",
	"protein r2 narrow untraced ungated dedup cold nofault slabs run",
	"dna s3 wide traced gated dedup warm nofault spilled run",
	"dna s3 wide traced gated dedup warm nofault slabs engine",
	"dna r2 narrow traced ungated nodedup nocache transient spilled engine",
	"dna r2 narrow traced ungated nodedup nocache nofault oneslab staged",
	"protein s3 wide untraced ungated dedup cold transient oneslab service",
	"protein s3 wide untraced ungated dedup cold nofault oneslab staged",
	"dna r2 auto traced gated dedup nocache nofault oneslab run",
	"dna r2 auto traced gated dedup nocache nofault slabs staged",
	"dna r2 narrow untraced ungated dedup warm nofault oneslab run",
	"dna r2 narrow untraced ungated dedup warm nofault slabs staged",
	"dna r2 auto untraced ungated dedup cold nofault oneslab run",
	"dna r2 auto untraced ungated dedup cold nofault slabs staged",
	"dna r2 wide traced ungated dedup nocache nofault oneslab run",
	"dna r2 wide traced ungated dedup nocache transient spilled service",
}

// latticeRow is one parsed row: its values, name, report class, index, and
// workers — GOMAXPROCS for the run, an engine's executors and queue depth.
type latticeRow struct {
	name, class                                                         string
	corpus, algo, tier, trace, gate, dedup, cache, faults, layout, path string
	index, workers                                                      int
}

// TestInvariantLattice states the system's defining invariant once: the
// paper's X-Drop returns the same alignments under every execution
// strategy, and they are the oracle's. Every row checks
//
//   - the results fingerprint: each result, trace fields aside, equals the
//     corpus's first row's, and its GlobalID, scores and aligned region
//     equal the oracle's (the lattice's δb never clamps);
//   - one CIGAR set: a CIGAR exactly where the score reaches the gate, the
//     same CIGAR and trace bytes in every row, re-priced to the score;
//   - the report fingerprint, shared by every row of a report class;
//   - latticePredicates.
func TestInvariantLattice(t *testing.T) {
	rows := parseLattice(t)
	corpora := map[string]*latticeCorpus{"dna": newLatticeCorpus(t, false), "protein": newLatticeCorpus(t, true)}
	classes := map[string][2]string{} // report class → its first row and that row's report fingerprint
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			runtime.GOMAXPROCS(r.workers)
			c := corpora[r.corpus]
			d, arena := c.layout(t, r.layout)
			cfg := c.config(t, r)
			rep := runLatticeRow(t, r, cfg, d)
			c.check(t, rep, cfg)
			latticePredicates(t, r, c, cfg, d, rep)
			if r.layout == "spilled" {
				checkSpilled(t, arena, rep.Batches > 0)
			}
			fp := reportFingerprint(rep)
			if first, ok := classes[r.class]; !ok {
				classes[r.class] = [2]string{r.name, fp}
			} else if first[1] != fp {
				t.Errorf("report %s; its class's first row, %s, reported %s", fp, first[0], first[1])
			}
		})
	}
}

// parseLattice parses latticeRows, checking each word against its axis,
// that no row holds an excluded pair and that every other pair of values
// is held by some row.
func parseLattice(t *testing.T) []latticeRow {
	var rows []latticeRow
	held := map[string]bool{}
	for i, spec := range latticeRows {
		words := strings.Fields(spec)
		r := latticeRow{name: strings.Join(words, "-"), class: strings.Join(words[:7], " "), index: i, workers: []int{1, 2, 4}[i%3]}
		fields := []*string{&r.corpus, &r.algo, &r.tier, &r.trace, &r.gate, &r.dedup, &r.cache, &r.faults, &r.layout, &r.path}
		if len(words) != len(fields) {
			t.Fatalf("row %q: %d words, want one per axis", spec, len(words))
		}
		for a, w := range words {
			if !slices.Contains(latticeAxes[a], w) {
				t.Fatalf("row %q: %q is not a value of axis %v", spec, w, latticeAxes[a])
			}
			*fields[a] = w
			for _, w2 := range words[a+1:] {
				held[w+" "+w2] = true
				if slices.Contains(latticeExcluded, w+" "+w2) || slices.Contains(latticeExcluded, w2+" "+w) {
					t.Fatalf("row %q holds the excluded pair %s, %s", spec, w, w2)
				}
			}
		}
		rows = append(rows, r)
	}
	for a, vs := range latticeAxes {
		for _, vs2 := range latticeAxes[a+1:] {
			for _, v := range vs {
				for _, v2 := range vs2 {
					if p := v + " " + v2; !held[p] && !slices.Contains(latticeExcluded, p) && !slices.Contains(latticeExcluded, v2+" "+v) {
						t.Errorf("no lattice row holds %s", p)
					}
				}
			}
		}
	}
	return rows
}

// latticeCorpus is one dataset and what every row must reproduce on it.
type latticeCorpus struct {
	d      *workload.Dataset
	params core.Params
	// unique counts the leading comparisons, each a distinct extension;
	// the rest duplicate them. saturates marks an extension that
	// overflows the narrow tier's int16.
	unique    int
	saturates bool
	want      []oracle.Alignment
	cut       int // the median oracle score
	// results is the results fingerprint (trace fields cleared), set by
	// the first row; traces holds each comparison's first CIGAR seen.
	results, traces []ipukernel.AlignOut
}

// newLatticeCorpus builds pairs with seeds planted mid-pair: extensions of
// ≈ 200 symbols, which the modeled device records fused, and of ≈ 400,
// which it charges a score pass and a replay; the first read against a
// second candidate, at the same seed; for DNA an identical 1100-base
// pair; then three duplicates: a repeated row, a repeated
// comparison under fresh indices for the same bytes, and the last pair
// again. DNA runs the paper's scheme (+1/−1, gap −1, X 15) scaled by 64:
// every prune decision is the unit scheme's, and the identical pair's
// 541-base extensions overflow int16 (TierNarrow promotes them, TierAuto
// runs them wide).
func newLatticeCorpus(t *testing.T, protein bool) *latticeCorpus {
	rng := rand.New(rand.NewSource(2304))
	gen, prof, k := synth.RandDNA, synth.UniformDNA(0.08), 17
	p := core.Params{Scorer: scoring.NewSimple(64, -64), Gap: -64, X: 15 * 64, DeltaB: 256}
	if protein {
		gen, prof, k = synth.RandProtein, synth.MutationProfile{Sub: 0.12, Ins: 0.02, Del: 0.02, Protein: true}, 4
		p = core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49, DeltaB: 256}
	}
	var seqs [][]byte
	var cmps []workload.Comparison
	add := func(h, v []byte) {
		s := len(h)/2 - k/2
		sv := min(s, len(v)-k)
		synth.PlantSeed(h, v, s, sv, k)
		seqs = append(seqs, h, v)
		cmps = append(cmps, workload.Comparison{H: len(seqs) - 2, V: len(seqs) - 1, SeedH: s, SeedV: sv, SeedLen: k})
	}
	for _, n := range []int{380, 400, 420, 400, 760, 800, 840, 800} {
		h := gen(rng, n)
		add(h, prof.Apply(rng, h))
	}
	add(seqs[0], prof.Apply(rng, seqs[0])) // the first read again, against a second candidate
	if !protein {
		h := gen(rng, 1100)
		add(h, slices.Clone(h))
	}
	unique := len(cmps)
	seqs = append(seqs, seqs[2], seqs[3])
	again := cmps[1]
	again.H, again.V = len(seqs)-2, len(seqs)-1
	cmps = append(cmps, cmps[0], again, cmps[unique-1])
	c := &latticeCorpus{d: workload.MustPack("lattice", seqs, cmps, protein), params: p, unique: unique, saturates: !protein}

	kcfg := ipukernel.Config{Params: p, Traceback: true}
	var scores []int
	fused, replayed := 0, 0
	for _, cmp := range c.d.Comparisons {
		w := oracle.Seed(c.d.Seq(cmp.H), c.d.Seq(cmp.V), cmp.SeedH, cmp.SeedV, cmp.SeedLen, p.Scorer.Table(), p.Gap, p.X)
		c.want = append(c.want, w)
		scores = append(scores, w.Score)
		lh, lv, rh, rv := c.d.ExtensionLens(cmp)
		for _, side := range [][2]int{{lh, lv}, {rh, rv}} {
			if f, _ := kcfg.TraceCharges(side[0], side[1]); f > 0 {
				fused++
			} else {
				replayed++
			}
		}
	}
	slices.Sort(scores)
	c.cut = scores[len(scores)/2]
	if fused == 0 || replayed == 0 || c.cut <= 0 {
		t.Fatalf("corpus: %d fused and %d replay-charged extensions, gate %d; want both paths and a positive gate", fused, replayed, c.cut)
	}
	c.traces = make([]ipukernel.AlignOut, len(cmps))
	return c
}

// config returns the row's driver configuration: fleet, kernel, dedup and
// cache (faults are the engine paths' own, in runLatticeRow).
func (c *latticeCorpus) config(t *testing.T, r latticeRow) driver.Config {
	p := c.params
	p.Tier = core.Tier(slices.Index(latticeAxes[2], r.tier))
	cfg := driver.Config{IPUs: 1, TilesPerIPU: 4, MaxBatchJobs: 3}
	if r.algo == "r2" {
		cfg = driver.Config{IPUs: 2, TilesPerIPU: 8, Partition: true, MaxBatchJobs: 4, Kernel: ipukernel.Config{
			LRSplit: true, WorkStealing: true, BusyWaitVariance: true, DualIssue: true}}
	} else {
		p.Algo = core.AlgoStandard3
	}
	cfg.Kernel.Params = p
	cfg.Kernel.Traceback = r.trace == "traced"
	if r.gate == "gated" {
		cfg.Kernel.TraceMinScore = c.cut
	}
	cfg.DedupExtensions = r.dedup == "dedup"
	if r.cache == "nocache" {
		return cfg
	}
	// The engine's own result cache; it outlives the engine that made it.
	e := engine.New(engine.WithResultCache(1<<12), engine.WithExecutors(1))
	e.Close()
	fill := func(f driver.Config) { // on the one-slab corpus, whatever the row's layout
		f.Cache = e.Config().Cache
		c.check(t, mustRun(t, c.d, f), f)
	}
	if r.cache == "cold" {
		foreign := cfg
		foreign.Kernel.Params.Tier = (p.Tier + 1) % 3
		fill(foreign)
		if cfg.Kernel.Traceback {
			foreign = cfg
			foreign.Kernel.TraceMinScore = c.cut - cfg.Kernel.TraceMinScore
			fill(foreign)
		}
	} else {
		fill(cfg)
	}
	cfg.Cache = e.Config().Cache
	return cfg
}

// layout returns the corpus in the row's slab layout, and the arena of a
// repacked one.
func (c *latticeCorpus) layout(t *testing.T, layout string) (*workload.Dataset, *workload.Arena) {
	if layout == "oneslab" {
		return c.d, nil
	}
	maxSlab := 0
	for i := range c.d.NumSeqs() {
		maxSlab = max(maxSlab, c.d.SeqLen(i))
	}
	if layout == "spilled" {
		total := 0
		for i := range c.d.NumSeqs() {
			total += c.d.SeqLen(i)
		}
		maxSlab = max(maxSlab, total/3+1)
	}
	a := workload.NewArena(0, c.d.NumSeqs())
	a.SetMaxSlabBytes(maxSlab)
	for i := range c.d.NumSeqs() {
		if _, err := a.TryAppend(c.d.Seq(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := a.NewDataset(c.d.Name, workload.PlanOf(c.d.Comparisons), c.d.Protein)
	if layout == "spilled" {
		a.EnableSpill(t.TempDir())
		a.Seal()
		if _, err := a.Spill(); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Residency(); st.Slabs < 2 || layout == "spilled" && st.Resident != 0 {
		t.Fatalf("%s layout: %+v", layout, st)
	}
	return d, a
}

// runLatticeRow runs d down the row's path, with the row's faults below an
// engine. Engine and service rows also check their stream — each
// comparison once, as reported — and that the engine's counters account
// for exactly the batches and faults of the run.
func runLatticeRow(t *testing.T, r latticeRow, cfg driver.Config, d *workload.Dataset) *driver.Report {
	ctx := context.Background()
	switch r.path {
	case "run":
		return mustRun(t, d, cfg)
	case "staged":
		bp, err := driver.BuildBatches(ctx, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.cache != "warm" && bp.Batches() < 2 {
			t.Fatalf("staged plan: %d comparisons in %d batches", len(d.Comparisons), bp.Batches())
		}
		dev, kcfg := bp.NewDevice(), bp.KernelConfig(1)
		outs := make([]*ipukernel.BatchResult, bp.Batches())
		for i := len(outs) - 1; i >= 0; i-- {
			if outs[i], err = bp.ExecBatch(dev, i, kcfg); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := driver.AssemblePlan(bp, outs)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Schedule(cfg.IPUs)
	}

	opts := []engine.Option{engine.WithExecutors(r.workers), engine.WithQueueDepth(r.workers)}
	if r.faults != "nofault" {
		// The first plan from the row's seed whose first batch draws the
		// row's fault on its first attempt.
		spec, kind := driver.FaultSpec{TransientRate: 0.5}, driver.FaultTransient
		if r.faults == "permanent" {
			spec, kind = driver.FaultSpec{PermanentRate: 0.4, TransientRate: 0.2}, driver.FaultPermanent
			opts = append(opts, engine.WithDegradedMode(engine.DegradeFallback))
		}
		for seed := int64(r.index); cfg.Faults.Kind(0, 0) != kind; seed++ {
			cfg.Faults = driver.NewFaultPlan(seed, spec)
		}
	}
	opts = append(opts, engine.WithDriverConfig(cfg), engine.WithRetry(12, 0), engine.WithRetryBackoff(50*time.Microsecond, time.Millisecond))
	var shard *engine.Engine
	var job interface {
		Results() <-chan engine.Update
		Wait(context.Context) (*driver.Report, error)
	}
	var err error
	if r.path == "engine" {
		shard = engine.New(opts...)
		defer shard.Close()
		job, err = shard.Submit(ctx, d)
	} else {
		svc := service.New(service.Config{Shards: 1, EngineOptions: opts})
		defer svc.Close()
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		shard = svc.Shards()[0]
		job, err = serviceclient.New(ts.URL).Submit(ctx, d)
	}
	if err != nil {
		t.Fatal(err)
	}
	streamed := map[int][]ipukernel.AlignOut{}
	for u := range job.Results() {
		for _, o := range u.Results {
			streamed[o.GlobalID] = append(streamed[o.GlobalID], o)
		}
	}
	rep, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Results {
		if len(streamed[i]) != 1 || streamed[i][0] != o {
			t.Fatalf("comparison %d streamed as %+v; report %+v", i, streamed[i], o)
		}
	}
	st := shard.Stats()
	tr, pm, _ := cfg.Faults.Injected()
	if st.BatchesDone != int64(rep.Batches) || st.Retries != tr || st.Quarantined != pm || st.FaultsInjected != tr+pm ||
		st.Hedges != 0 || st.DeadlineExceeded != 0 || (rep.Batches > 0 && (r.faults == "transient" && tr == 0 || r.faults == "permanent" && pm == 0)) {
		t.Fatalf("%s faults: injected %d transient, %d permanent; engine %+v", r.faults, tr, pm, st)
	}
	return rep
}

// check holds a report's results to the oracle, the corpus's results
// fingerprint and its CIGAR set.
func (c *latticeCorpus) check(t *testing.T, rep *driver.Report, cfg driver.Config) {
	t.Helper()
	if len(rep.Results) != len(c.want) || rep.Clamped != 0 {
		t.Fatalf("%d results, %d clamped; want %d, none clamped", len(rep.Results), rep.Clamped, len(c.want))
	}
	if c.results == nil {
		c.results = slices.Clone(rep.Results)
		for i := range c.results {
			c.results[i].Cigar, c.results[i].TraceBytes = "", 0
		}
	}
	p, gate := cfg.Kernel.Params, cfg.Kernel.TraceMinScore
	for i, o := range rep.Results {
		w := c.want[i]
		if o.GlobalID != i || o.Failed || o.Score != w.Score || o.LeftScore != w.Left || o.RightScore != w.Right ||
			o.BegH != w.BegH || o.BegV != w.BegV || o.EndH != w.EndH || o.EndV != w.EndV {
			t.Fatalf("comparison %d: %+v, oracle %+v", i, o, w)
		}
		traced := cfg.Kernel.Traceback && o.Score >= gate
		if seen := c.traces[i]; traced != (o.Cigar != "") || traced != (o.TraceBytes != 0) ||
			traced && seen.Cigar != "" && (o.Cigar != seen.Cigar || o.TraceBytes != seen.TraceBytes) {
			t.Fatalf("comparison %d (score %d, gate %d): CIGAR %q, %d trace bytes; another row %q, %d",
				i, o.Score, gate, o.Cigar, o.TraceBytes, seen.Cigar, seen.TraceBytes)
		} else if traced && seen.Cigar == "" {
			cmp := c.d.Comparisons[i]
			price, err := alignment.ScoreOf(c.d.Seq(cmp.H)[o.BegH:o.EndH], c.d.Seq(cmp.V)[o.BegV:o.EndV], o.Cigar, p.Scorer, p.Gap, p.GapOpen)
			if err != nil || price != o.Score {
				t.Fatalf("comparison %d: CIGAR %q prices %d (%v), score %d", i, o.Cigar, price, err, o.Score)
			}
			c.traces[i] = o
		}
		if o.Cigar, o.TraceBytes = "", 0; o != c.results[i] {
			t.Fatalf("comparison %d: %+v, the corpus's first row %+v", i, o, c.results[i])
		}
	}
}

// latticePredicates are the rows' further assertions.
//
//   - Dedup collapses exactly the duplicates, and on the duplicate-free
//     part of the corpus leaves the report as it was. Executed plus
//     skipped theoretical cells are the corpus's, and executed work takes
//     modeled time.
//   - A cold cache serves nothing, not even the row's configuration under
//     another tier or gate; a warm one serves every extension, whatever
//     the layout, and executes no batch.
//   - Tier counters sum to two per executed extension; wide runs nothing
//     narrow; narrow promotes exactly where an extension saturates; auto
//     never promotes and runs the saturating extension wide.
//   - Traced extensions are those of executed comparisons at or above the
//     gate, the rest skipped; untraced, the gate is not hashed into the
//     kernel fingerprint, so score-only runs share cache entries.
func latticePredicates(t *testing.T, r latticeRow, c *latticeCorpus, cfg driver.Config, d *workload.Dataset, rep *driver.Report) {
	n, unique := len(d.Comparisons), len(d.Comparisons)
	if r.dedup == "dedup" {
		unique = c.unique
	}
	executed := rep.UniqueExtensions - rep.CacheHits
	var cells int64
	for _, cmp := range d.Comparisons {
		cells += d.Complexity(cmp)
	}
	if rep.UniqueExtensions != unique || rep.DedupedComparisons != n-unique ||
		rep.TheoreticalCells+rep.SkippedTheoreticalCells != cells || (rep.WallSeconds > 0) != (executed > 0) {
		t.Errorf("%d unique extensions, %d deduped; want %d, %d; %d + %d theoretical cells of %d, %g s",
			rep.UniqueExtensions, rep.DedupedComparisons, unique, n-unique,
			rep.TheoreticalCells, rep.SkippedTheoreticalCells, cells, rep.WallSeconds)
	}
	if r.dedup == "dedup" && r.cache == "nocache" {
		free := d.WithComparisons(d.Comparisons[:c.unique])
		off := cfg
		off.DedupExtensions = false
		if a, b := reportFingerprint(mustRun(t, free, cfg)), reportFingerprint(mustRun(t, free, off)); a != b {
			t.Errorf("duplicate-free plan: dedup report %s, plain %s", a, b)
		}
	}
	hits, misses := 0, 0
	switch r.cache {
	case "cold":
		misses = unique
	case "warm":
		hits = unique
	}
	if rep.CacheHits != hits || rep.CacheMisses != misses || r.cache == "warm" && rep.Batches != 0 {
		t.Errorf("%s cache: %d hits, %d misses, %d batches", r.cache, rep.CacheHits, rep.CacheMisses, rep.Batches)
	}
	narrow, wide, promoted := rep.NarrowExtensions, rep.WideExtensions, rep.PromotedExtensions
	sat := c.saturates && executed > 0
	if narrow+wide+promoted != 2*executed ||
		r.tier == "wide" && narrow+promoted != 0 ||
		r.tier == "narrow" && (promoted > 0) != sat ||
		r.tier == "auto" && (promoted != 0 || (wide > 0) != sat) ||
		r.tier != "wide" && executed > 0 && narrow == 0 {
		t.Errorf("%s tier over %d executed extensions: %d narrow, %d wide, %d promoted", r.tier, executed, narrow, wide, promoted)
	}
	// The executed extensions are the first executed comparisons'.
	traced := 0
	for _, w := range c.want[:executed] {
		if w.Score >= cfg.Kernel.TraceMinScore {
			traced += 2
		}
	}
	skipped := 2*executed - traced
	if !cfg.Kernel.Traceback {
		traced, skipped = 0, 0
	}
	if rep.TracedExtensions != traced || rep.TraceSkippedExtensions != skipped {
		t.Errorf("%s %s: %d traced, %d skipped; want %d, %d", r.trace, r.gate, rep.TracedExtensions, rep.TraceSkippedExtensions, traced, skipped)
	}
	if !cfg.Kernel.Traceback {
		gated := cfg.Kernel
		gated.TraceMinScore = c.cut
		if driver.KernelFingerprint(gated) != driver.KernelFingerprint(cfg.Kernel) {
			t.Error("the trace gate moved a score-only kernel fingerprint")
		}
	}
}

// checkSpilled holds a spilled spine to the pin protocol: a run that
// executed faulted slabs in and released every pin, so the whole spine
// spills again.
func checkSpilled(t *testing.T, a *workload.Arena, executed bool) {
	if st := a.Residency(); executed && st.Faults == 0 {
		t.Errorf("a run over a spilled spine faulted nothing in: %+v", st)
	}
	if _, err := a.Spill(); err != nil || a.Residency().Resident != 0 {
		t.Errorf("slabs still pinned after the run: %v, %+v", err, a.Residency())
	}
	if err := a.Close(); err != nil {
		t.Error(err)
	}
}

func mustRun(t *testing.T, d *workload.Dataset, cfg driver.Config) *driver.Report {
	rep, err := driver.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// reportFingerprint hashes a whole report as the wire carries it: the
// summary's JSON (every counter, byte and modeled second) and every field
// of every result.
func reportFingerprint(rep *driver.Report) string {
	sum, _ := json.Marshal(rep.Summary) // integers and finite seconds: cannot fail
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(sum, "%v", rep.Results)))[:16]
}
