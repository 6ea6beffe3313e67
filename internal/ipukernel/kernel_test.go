package ipukernel

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func dnaCfg(x int) Config {
	return Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, DeltaB: 256},
	}
}

// stealCfg is dnaCfg(x) with LR splitting and work stealing under the
// busy-wait variance.
func stealCfg(x int) Config {
	cfg := dnaCfg(x)
	cfg.LRSplit, cfg.WorkStealing, cfg.BusyWaitVariance = true, true, true
	return cfg
}

// buildBatch places one uniform synthetic comparison per tile. Tiles
// reference the dataset's shared arena slab, as the partitioner builds
// them.
func buildBatch(t *testing.T, count, length int, errRate float64, seed int64) (*Batch, *synth.Dataset) {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: count, Length: length, ErrorRate: errRate, SeedLen: 17, Seed: seed,
	})
	arena, plan := d.Spine()
	b := &Batch{}
	for i := 0; i < plan.Len(); i++ {
		c := plan.At(i)
		b.Tiles = append(b.Tiles, TileWork{
			Slabs: slabViews(arena),
			Seqs:  []workload.SeqRef{arena.Ref(c.H), arena.Ref(c.V)},
			Jobs:  []SeedJob{{HLocal: 0, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: int32(i)}},
		})
	}
	return b, d
}

// mustRun is Run of b on dev under cfg, failing the test on an error.
func mustRun(t testing.TB, dev *ipu.Device, b *Batch, cfg Config) *BatchResult {
	t.Helper()
	res, err := Run(dev, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasic(t *testing.T) {
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, d := buildBatch(t, 20, 600, 0.15, 1)
	res := mustRun(t, dev, b, dnaCfg(15))
	if len(res.Out) != 20 {
		t.Fatalf("got %d outputs", len(res.Out))
	}
	for i, o := range res.Out {
		if o.GlobalID != i {
			t.Errorf("output %d has GlobalID %d", i, o.GlobalID)
		}
		if o.Score < 17 { // at least the seed must match
			t.Errorf("output %d score %d below seed score", i, o.Score)
		}
		c := d.Comparisons[i]
		if o.BegH > c.SeedH || o.EndH < c.SeedH+c.SeedLen {
			t.Errorf("output %d does not span the seed", i)
		}
	}
	if res.Seconds <= 0 || res.Cells <= 0 || res.TheoreticalCells <= 0 {
		t.Errorf("bad accounting: %+v", res)
	}
}

// TestKernelMatchesDirectExtension: the kernel must produce exactly the
// scores ExtendSeed produces — the IPU mapping changes scheduling, never
// results.
func TestKernelMatchesDirectExtension(t *testing.T) {
	for _, cfgMut := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.LRSplit = true },
		func(c *Config) { c.LRSplit = true; c.WorkStealing = true; c.BusyWaitVariance = true },
		func(c *Config) { c.DualIssue = true },
		func(c *Config) { c.Threads = 1 },
	} {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, d := buildBatch(t, 12, 500, 0.1, 2)
		cfg := dnaCfg(10)
		cfgMut(&cfg)
		res := mustRun(t, dev, b, cfg)
		for i, o := range res.Out {
			c := d.Comparisons[i]
			want, err := core.ExtendSeed(d.Seq(c.H), d.Seq(c.V),
				core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, cfg.Params)
			if err != nil {
				t.Fatal(err)
			}
			if o.Score != want.Score || o.LeftScore != want.LeftScore || o.RightScore != want.RightScore {
				t.Fatalf("cmp %d: kernel %+v != direct %+v", i, o, want)
			}
			if o.BegH != want.BegH || o.EndH != want.EndH || o.BegV != want.BegV || o.EndV != want.EndV {
				t.Fatalf("cmp %d: kernel span != direct span", i)
			}
		}
	}
}

func TestMultiJobTileSharedSequences(t *testing.T) {
	// One tile holding 4 sequences and 5 jobs reusing them (the graph
	// partitioning payoff, §4.3).
	rng := rand.New(rand.NewSource(3))
	seqs := make([][]byte, 4)
	base := synth.RandDNA(rng, 800)
	prof := synth.UniformDNA(0.1)
	for i := range seqs {
		seqs[i] = prof.Apply(rng, base)
		if len(seqs[i]) < 400 {
			t.Fatal("mutation shrank sequence too much")
		}
	}
	var jobs []SeedJob
	for k := 0; k < 5; k++ {
		a, b := k%4, (k+1)%4
		jobs = append(jobs, SeedJob{HLocal: a, VLocal: b, SeedH: 100, SeedV: 100, SeedLen: 17, GlobalID: int32(k)})
	}
	// Plant exact seeds.
	for _, j := range jobs {
		synth.PlantSeed(seqs[j.HLocal], seqs[j.VLocal], j.SeedH, j.SeedV, j.SeedLen)
	}
	tile := TileWork{Jobs: jobs}
	for _, s := range seqs {
		tile.addSeq(s)
	}
	b := &Batch{Tiles: []TileWork{tile}}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	res := mustRun(t, dev, b, stealCfg(10))
	if res.StealOps == 0 {
		t.Error("work stealing never engaged")
	}
	if len(res.Out) != 5 {
		t.Fatalf("got %d outputs", len(res.Out))
	}
	// Transfer accounting must charge each sequence once, not per job.
	wantSeqBytes := 0
	for _, s := range seqs {
		wantSeqBytes += len(s)
	}
	wantIn := int64(wantSeqBytes + 4*seqDescrBytes + 5*JobTupleBytes + batchHdrBytes)
	if res.HostBytesIn != wantIn {
		t.Errorf("HostBytesIn = %d, want %d", res.HostBytesIn, wantIn)
	}
}

// addSeq appends s to the tile's private slab (the last entry of Slabs)
// and returns its local index: a tile built by hand, where the
// partitioner points tiles at the dataset's shared arena spine.
func (t *TileWork) addSeq(s []byte) int {
	if len(t.Slabs) == 0 {
		t.Slabs = append(t.Slabs, nil)
	}
	si := len(t.Slabs) - 1
	t.Seqs = append(t.Seqs, workload.SeqRef{Slab: int32(si), Off: int32(len(t.Slabs[si])), Len: int32(len(s))})
	t.Slabs[si] = append(t.Slabs[si], s...)
	return len(t.Seqs) - 1
}

// TestUniqueSeqBytes covers the span merge behind the exact §4.1 payload
// stat: duplicates, overlaps and adjacent spans collapse, disjoint spans
// sum, and SeqBytes (per-descriptor accounting) stays the upper bound.
func TestUniqueSeqBytes(t *testing.T) {
	empty := TileWork{}
	if got, _ := empty.uniqueSeqBytes(nil); got != 0 {
		t.Errorf("empty tile uniqueSeqBytes = %d", got)
	}
	tile := TileWork{
		Slabs: [][]byte{make([]byte, 100)},
		Seqs: []workload.SeqRef{
			{Off: 40, Len: 5},  // disjoint, out of order
			{Off: 10, Len: 10}, // base span
			{Off: 10, Len: 10}, // exact duplicate (interned sequence)
			{Off: 15, Len: 10}, // overlaps base
			{Off: 25, Len: 5},  // adjacent to the merged run
		},
	}
	// Coverage: [10,30) ∪ [40,45) = 25 bytes; descriptors charge 40.
	got, _ := tile.uniqueSeqBytes(nil)
	if got != 25 {
		t.Errorf("uniqueSeqBytes = %d, want 25", got)
	}
	if tile.SeqBytes() != 40 {
		t.Errorf("SeqBytes = %d, want 40", tile.SeqBytes())
	}
	if got > tile.SeqBytes() {
		t.Error("unique payload exceeds per-descriptor payload")
	}
}

// TestUniqueSeqBytesInRun: a tile listing an arena sequence twice (the
// Copies mode) charges it per descriptor in HostBytesIn but once in
// UniqueSeqBytesIn.
func TestUniqueSeqBytesInRun(t *testing.T) {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 1, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: 12})
	arena, _ := d.Spine()
	c := d.Comparisons[0]
	tile := TileWork{
		Slabs: slabViews(arena),
		Seqs:  []workload.SeqRef{arena.Ref(c.H), arena.Ref(c.V), arena.Ref(c.H)},
		Jobs: []SeedJob{
			{HLocal: 0, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: 0},
			{HLocal: 2, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: 1},
		},
	}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	res := mustRun(t, dev, &Batch{Tiles: []TileWork{tile}}, dnaCfg(10))
	hn, vn := d.SeqLen(c.H), d.SeqLen(c.V)
	if want := int64(2*hn + vn); res.HostBytesIn-int64(3*seqDescrBytes+2*JobTupleBytes+batchHdrBytes) != want {
		t.Errorf("per-descriptor sequence payload = %d, want %d",
			res.HostBytesIn-int64(3*seqDescrBytes+2*JobTupleBytes+batchHdrBytes), want)
	}
	if want := int64(hn + vn); res.UniqueSeqBytesIn != want {
		t.Errorf("UniqueSeqBytesIn = %d, want %d (duplicate span charged once)", res.UniqueSeqBytesIn, want)
	}
	if res.Out[0].Score != res.Out[1].Score {
		t.Error("duplicate-span job scored differently")
	}
}

func TestSRAMRejection(t *testing.T) {
	// A tile with sequences larger than the SRAM budget must be refused.
	big := make([]byte, 300*1024)
	for i := range big {
		big[i] = "ACGT"[i%4]
	}
	tile := TileWork{Jobs: []SeedJob{{HLocal: 0, VLocal: 1, SeedH: 0, SeedV: 0, SeedLen: 17}}}
	tile.addSeq(big)
	tile.addSeq(big)
	b := &Batch{Tiles: []TileWork{tile}}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	if _, err := Run(dev, b, dnaCfg(10)); err == nil {
		t.Fatal("oversized tile accepted")
	}
}

func TestStandard3NeedsMoreSRAM(t *testing.T) {
	cfg := dnaCfg(10)
	all := make([]byte, 20000)
	for i := range all {
		all[i] = 'A'
	}
	tile := &TileWork{
		Jobs: []SeedJob{{HLocal: 0, VLocal: 1, SeedH: 10000, SeedV: 10000, SeedLen: 17}},
	}
	tile.addSeq(all)
	tile.addSeq(all)
	restricted := cfg.TileMemoryBytes(tile, platform.GC200)
	cfg.Params.Algo = core.AlgoStandard3
	standard := cfg.TileMemoryBytes(tile, platform.GC200)
	if standard <= restricted {
		t.Errorf("standard3 footprint %d not above restricted %d", standard, restricted)
	}
	// For 20 kb extensions the standard algorithm cannot fit six threads
	// of 3δ buffers in 624 KB — the paper's motivation (§3, §4.1).
	if standard < platform.GC200.DataSRAM() {
		t.Errorf("standard3 on 20kb pairs should exceed tile SRAM, got %d < %d",
			standard, platform.GC200.DataSRAM())
	}
	if restricted > platform.GC200.DataSRAM() {
		t.Errorf("restricted on 20kb pairs should fit tile SRAM, got %d", restricted)
	}
}

func TestWorkBufBytesPerThread(t *testing.T) {
	cfg := dnaCfg(10) // δb = 256
	if got := cfg.WorkBufBytesPerThread(10000); got != 2*256*4 {
		t.Errorf("restricted buf = %d, want %d", got, 2*256*4)
	}
	cfg.Params.DeltaB = 0
	if got := cfg.WorkBufBytesPerThread(10000); got != 2*10001*4 {
		t.Errorf("unbounded restricted buf = %d", got)
	}
	cfg.Params.Algo = core.AlgoStandard3
	if got := cfg.WorkBufBytesPerThread(10000); got != 3*10001*4 {
		t.Errorf("standard buf = %d", got)
	}
	cfg.Params.Algo = core.AlgoAffine
	if got := cfg.WorkBufBytesPerThread(10000); got != 7*10001*4 {
		t.Errorf("affine buf = %d", got)
	}
}

// TestThreadScalingSpeedsUp reproduces the Table 1 mechanism: more
// threads per tile shorten the modeled superstep.
func TestThreadScalingSpeedsUp(t *testing.T) {
	mk := func(threads int) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		// One tile, 12 equal jobs.
		d := synth.UniformPairs(synth.UniformPairsSpec{Count: 12, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: 4})
		cfg := dnaCfg(15)
		cfg.Threads = threads
		res := mustRun(t, dev, &Batch{Tiles: []TileWork{*pairsTile(d)}}, cfg)
		return res.Seconds
	}
	t1 := mk(1)
	t6 := mk(6)
	speedup := t1 / t6
	if speedup < 4.0 || speedup > 6.001 {
		t.Errorf("6-thread speedup = %.2f, want within (4, 6]", speedup)
	}
}

// TestDualIssueSpeedsUp reproduces §4.1.4's ~1.3×.
func TestDualIssueSpeedsUp(t *testing.T) {
	run := func(dual bool) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, _ := buildBatch(t, 10, 500, 0.15, 5)
		cfg := dnaCfg(15)
		cfg.DualIssue = dual
		res := mustRun(t, dev, b, cfg)
		return res.Seconds
	}
	ratio := run(false) / run(true)
	if ratio < 1.2 || ratio > 1.4 {
		t.Errorf("dual-issue speedup %.3f, want ≈1.3", ratio)
	}
}

// TestWorkStealingBalancesVariance: with variable-cost jobs on one tile,
// stealing must beat static round-robin (§4.1.3: 1.44× on real data).
func TestWorkStealingBalancesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tile := TileWork{}
	// 18 jobs with wildly varying lengths (cost variance).
	for i := 0; i < 18; i++ {
		n := 200 + rng.Intn(1400)
		h := synth.RandDNA(rng, n)
		v := synth.UniformDNA(0.12).Apply(rng, h)
		if len(v) < 100 {
			t.Fatal("sequence too short")
		}
		sh := n / 2
		if sh+17 > len(v) {
			sh = len(v) - 17
		}
		synth.PlantSeed(h, v, sh, sh, 17)
		tile.addSeq(h)
		tile.addSeq(v)
		tile.Jobs = append(tile.Jobs, SeedJob{HLocal: 2 * i, VLocal: 2*i + 1, SeedH: sh, SeedV: sh, SeedLen: 17, GlobalID: int32(i)})
	}
	run := func(ws bool) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		cfg := dnaCfg(15)
		cfg.LRSplit = true
		cfg.WorkStealing = ws
		cfg.BusyWaitVariance = true
		res := mustRun(t, dev, &Batch{Tiles: []TileWork{tile}}, cfg)
		return res.Seconds
	}
	static := run(false)
	stealing := run(true)
	if stealing >= static {
		t.Errorf("work stealing (%.3gs) did not beat static assignment (%.3gs)", stealing, static)
	}
}

// TestEventualWorkStealingReducesRaces reproduces §4.1.3: without the
// busy-wait variance, deterministic latencies make tied threads steal the
// same unit perpetually; the busy-wait breaks the ties.
func TestEventualWorkStealingReducesRaces(t *testing.T) {
	// Uniform jobs → identical costs → maximal tie pressure.
	b, _ := buildBatch(t, 1, 300, 0.15, 7)
	// Pack 24 identical jobs on one tile.
	tile := TileWork{Slabs: b.Tiles[0].Slabs, Seqs: b.Tiles[0].Seqs}
	for k := 0; k < 24; k++ {
		j := b.Tiles[0].Jobs[0]
		j.GlobalID = int32(k)
		tile.Jobs = append(tile.Jobs, j)
	}
	run := func(busyWait bool) int {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		cfg := dnaCfg(15)
		cfg.WorkStealing = true
		cfg.BusyWaitVariance = busyWait
		res := mustRun(t, dev, &Batch{Tiles: []TileWork{tile}}, cfg)
		return res.Races
	}
	racy := run(false)
	eventual := run(true)
	if racy == 0 {
		t.Fatal("expected races with identical unit costs and no busy-wait")
	}
	if eventual >= racy {
		t.Errorf("busy-wait variance did not reduce races: %d -> %d", racy, eventual)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, _ := buildBatch(t, 1, 100, 0.1, 8)
	cfg := Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: 1, X: 5}}
	if _, err := Run(dev, b, cfg); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Run(dev, &Batch{Tiles: make([]TileWork, 2000)}, dnaCfg(5)); err == nil {
		t.Error("too many tiles accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *BatchResult {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, _ := buildBatch(t, 16, 400, 0.2, 9)
		return mustRun(t, dev, b, stealCfg(12))
	}
	a, b := run(), run()
	if a.Seconds != b.Seconds || a.Races != b.Races || a.Cells != b.Cells {
		t.Error("kernel run not deterministic")
	}
	for i := range a.Out {
		if a.Out[i] != b.Out[i] {
			t.Fatalf("output %d differs between runs", i)
		}
	}
}

// TestCountersAddCoversEveryField: a counter declared in Counters but
// forgotten in Add would silently report zero at every layer above the
// tile. Every field must take part — summed, or maxed for the two
// high-water marks.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(i + 1))
	}
	var zero Counters
	zero.Add(c)
	if zero != c {
		t.Fatalf("Add into a zero value dropped a field:\n got %+v\nwant %+v", zero, c)
	}
	maxed := map[string]bool{"MaxSRAM": true, "PeakTracebackBytes": true}
	self := c
	self.Add(c)
	sv := reflect.ValueOf(self)
	for i := 0; i < sv.NumField(); i++ {
		name, want := sv.Type().Field(i).Name, int64(2*(i+1))
		if maxed[name] {
			want = int64(i + 1)
		}
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("%s: c.Add(c) = %d, want %d (maxed: %v)", name, got, want, maxed[name])
		}
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
