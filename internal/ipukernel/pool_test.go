package ipukernel

import (
	"runtime"
	"slices"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/synth"
)

// warmTile builds a multi-job tile for executor-reuse tests.
func warmTile(t *testing.T, jobs int) *TileWork {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: jobs, Length: 700, ErrorRate: 0.15, SeedLen: 17, Seed: 21,
	})
	arena, _ := d.Spine()
	tile := &TileWork{Slabs: arena.SlabViews()}
	for i, c := range d.Comparisons {
		tile.Seqs = append(tile.Seqs, arena.Ref(c.H), arena.Ref(c.V))
		tile.Jobs = append(tile.Jobs, SeedJob{
			HLocal: 2 * i, VLocal: 2*i + 1,
			SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: i,
		})
	}
	return tile
}

// TestWarmTileWorkerAllocs: once an executor's workspaces and scratch are
// warm, executing a tile must not allocate — the pooled tile workers run
// arbitrarily many supersteps at zero steady-state allocation — except,
// with traceback on, the one CIGAR string each traced comparison returns:
// the sides' walked runs are joined into it without a string of their own.
func TestWarmTileWorkerAllocs(t *testing.T) {
	tile := warmTile(t, 8)
	out := make([]AlignOut, len(tile.Jobs))
	traced := float64(len(tile.Jobs))
	for _, run := range []struct {
		mut  func(*Config)
		want float64
	}{
		{func(c *Config) {}, 0},
		{func(c *Config) { c.LRSplit = true }, 0},
		{func(c *Config) { c.LRSplit = true; c.WorkStealing = true; c.BusyWaitVariance = true }, 0},
		{func(c *Config) { c.Traceback = true }, traced},
		{func(c *Config) { c.Traceback = true; c.LRSplit = true; c.WorkStealing = true }, traced},
	} {
		cfg := dnaCfg(15).withDefaults(platform.GC200)
		run.mut(&cfg)
		ex := &executor{}
		runTile(tile, cfg, ex, out) // warm workspaces and scratch
		allocs := testing.AllocsPerRun(20, func() {
			runTile(tile, cfg, ex, out)
		})
		if allocs != run.want {
			t.Errorf("warm tile worker allocates %.1f objects/op, want %.0f (cfg %+v)", allocs, run.want, cfg)
		}
		if cfg.Traceback && (out[0].Cigar == "" || out[0].Failed) {
			t.Errorf("traced run returned no CIGAR: %+v", out[0])
		}
	}
}

// TestExecutorReleasesOversizedRunBuffers: an executor's run buffers past
// retainRuns — an outlier tile's — are released once the tile's CIGARs
// are out, and ordinary ones stay warm; neither changes a result.
func TestExecutorReleasesOversizedRunBuffers(t *testing.T) {
	tile := warmTile(t, 4)
	cfg := dnaCfg(15).withDefaults(platform.GC200)
	cfg.Traceback = true
	want := make([]AlignOut, len(tile.Jobs))
	runTile(tile, cfg, &executor{}, want)

	ex := &executor{}
	ex.runs[left] = make([]alignment.Run, 0, retainRuns+1)
	got := make([]AlignOut, len(tile.Jobs))
	runTile(tile, cfg, ex, got)
	if !slices.Equal(got, want) {
		t.Fatal("an executor holding an oversized run buffer changed the results")
	}
	if ex.runs[left] != nil {
		t.Errorf("left run buffer of %d runs retained past %d", retainRuns+1, retainRuns)
	}
	if cap(ex.runs[right]) == 0 || cap(ex.runs[right]) > retainRuns {
		t.Errorf("right run buffer cap %d, want a warm buffer within %d", cap(ex.runs[right]), retainRuns)
	}
}

// TestExecutorReuseAcrossTiles: an executor that just ran one tile must
// produce identical results on the next, regardless of what sizes the
// previous tile left in its workspaces and scratch slices.
func TestExecutorReuseAcrossTiles(t *testing.T) {
	big := warmTile(t, 12)
	small := warmTile(t, 3)
	cfg := dnaCfg(12).withDefaults(platform.GC200)
	cfg.LRSplit = true
	cfg.WorkStealing = true
	cfg.BusyWaitVariance = true

	fresh := make([]AlignOut, len(small.Jobs))
	runTile(small, cfg, &executor{}, fresh)

	reused := make([]AlignOut, len(small.Jobs))
	ex := &executor{}
	runTile(big, cfg, ex, make([]AlignOut, len(big.Jobs)))
	runTile(small, cfg, ex, reused)

	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("job %d: reused executor %+v != fresh %+v", i, reused[i], fresh[i])
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts: the pooled Run must produce
// identical batch results no matter how many pool workers execute it.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func() *BatchResult {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, _ := buildBatch(t, 24, 400, 0.18, 31)
		cfg := dnaCfg(12)
		cfg.LRSplit = true
		cfg.WorkStealing = true
		cfg.BusyWaitVariance = true
		res, err := Run(dev, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var ref *BatchResult
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res := run()
		if ref == nil {
			ref = res
			continue
		}
		if res.Seconds != ref.Seconds || res.Races != ref.Races || res.Cells != ref.Cells ||
			res.MaxSRAM != ref.MaxSRAM || res.HostBytesIn != ref.HostBytesIn {
			t.Fatalf("GOMAXPROCS=%d changed batch aggregates", procs)
		}
		for i := range res.Out {
			if res.Out[i] != ref.Out[i] {
				t.Fatalf("GOMAXPROCS=%d changed output %d", procs, i)
			}
		}
	}
}
