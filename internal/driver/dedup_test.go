package driver

import (
	"context"
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/workload"
)

// duplicated returns d with every comparison repeated factor times (the
// duplicate-heavy shape overlap pipelines resubmit), sharing d's pool.
func duplicated(d *workload.Dataset, factor int) *workload.Dataset {
	cmps := make([]workload.Comparison, 0, len(d.Comparisons)*factor)
	for f := 0; f < factor; f++ {
		cmps = append(cmps, d.Comparisons...)
	}
	return d.WithComparisons(cmps)
}

// sameResults asserts two reports carry bit-identical per-comparison
// alignments (every AlignOut field, including traces).
func sameResults(t *testing.T, name string, got, want []ipukernel.AlignOut) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: result %d differs with dedup on:\n  on:  %+v\n  off: %+v", name, i, got[i], want[i])
		}
	}
}

// TestDedupWithoutDuplicatesBitIdentical: on a plan with no duplicate
// extensions, the dedup path must reproduce the dedup-off report
// bit-for-bit — same results, same modeled times, same transfer bytes —
// because the executed sub-plan is the whole plan.
func TestDedupWithoutDuplicatesBitIdentical(t *testing.T) {
	ds := goldenDatasets(t)
	for name, tc := range goldenConfigs() {
		d := ds[tc.dataset]
		off, err := Run(d, tc.cfg)
		if err != nil {
			t.Fatalf("%s off: %v", name, err)
		}
		cfgOn := tc.cfg
		cfgOn.DedupExtensions = true
		on, err := Run(d, cfgOn)
		if err != nil {
			t.Fatalf("%s on: %v", name, err)
		}
		if a, b := reportFingerprint(off), reportFingerprint(on); a != b {
			t.Errorf("%s: dedup-on report %s differs from dedup-off %s on a duplicate-free plan", name, b, a)
		}
	}
}

// TestDedupModeledWorkDrops: on a 4×-duplicated workload, dedup must
// execute only the unique quarter — and the skipped accounting must tie
// out exactly against the dedup-off totals.
func TestDedupModeledWorkDrops(t *testing.T) {
	ds := goldenDatasets(t)
	d := duplicated(ds["reads"], 4)
	cfg := goldenConfigs()["reads-partition"].cfg

	off, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgOn := cfg
	cfgOn.DedupExtensions = true
	on, err := Run(d, cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	if on.TheoreticalCells*4 != off.TheoreticalCells {
		t.Errorf("executed theoretical cells %d, want a quarter of %d", on.TheoreticalCells, off.TheoreticalCells)
	}
	if on.TheoreticalCells+on.SkippedTheoreticalCells != off.TheoreticalCells {
		t.Errorf("executed %d + skipped %d should equal dedup-off total %d",
			on.TheoreticalCells, on.SkippedTheoreticalCells, off.TheoreticalCells)
	}
	if on.DeviceComputeSeconds >= off.DeviceComputeSeconds {
		t.Errorf("dedup did not reduce modeled compute: %g >= %g", on.DeviceComputeSeconds, off.DeviceComputeSeconds)
	}
	if on.HostBytesIn >= off.HostBytesIn {
		t.Errorf("dedup did not reduce modeled transfers: %d >= %d", on.HostBytesIn, off.HostBytesIn)
	}
	if len(on.Results) != len(d.Comparisons) {
		t.Errorf("report must stay per-comparison: %d results for %d comparisons", len(on.Results), len(d.Comparisons))
	}
}

// TestDedupFuzzEquivalence drives random plans — interned duplicate
// sequences, repeated rows, self-comparisons, mirrored pairs — through
// both paths; per-comparison alignments must always match.
func TestDedupFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := []byte("ACGT")
	p := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 12, DeltaB: 64}
	for trial := 0; trial < 40; trial++ {
		nDistinct := 2 + rng.Intn(6)
		distinct := make([][]byte, nDistinct)
		for i := range distinct {
			s := make([]byte, 60+rng.Intn(200))
			for j := range s {
				s[j] = alpha[rng.Intn(4)]
			}
			distinct[i] = s
		}
		// Pool with duplicated content under fresh indices.
		nSeqs := nDistinct + rng.Intn(6)
		seqs := make([][]byte, nSeqs)
		for i := range seqs {
			seqs[i] = distinct[rng.Intn(nDistinct)]
		}
		var cmps []workload.Comparison
		nCmps := 1 + rng.Intn(40)
		for i := 0; i < nCmps; i++ {
			h, v := rng.Intn(nSeqs), rng.Intn(nSeqs) // self-comparisons allowed
			k := 4 + rng.Intn(8)
			maxH, maxV := len(seqs[h])-k, len(seqs[v])-k
			cmps = append(cmps, workload.Comparison{
				H: h, V: v, SeedH: rng.Intn(maxH + 1), SeedV: rng.Intn(maxV + 1), SeedLen: k,
			})
			if rng.Intn(3) == 0 { // literal duplicate row
				cmps = append(cmps, cmps[len(cmps)-1])
			}
		}
		d := workload.MustPack("", seqs, cmps, false)
		cfg := Config{IPUs: 1, Partition: rng.Intn(2) == 0, TilesPerIPU: 1 + rng.Intn(8),
			Kernel: ipukernel.Config{Params: p}}
		off, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("trial %d off: %v", trial, err)
		}
		cfg.DedupExtensions = true
		on, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("trial %d on: %v", trial, err)
		}
		sameResults(t, "fuzz", on.Results, off.Results)
	}
}

// TestKernelSkippedWorkAccounting pins the ipukernel side of dedup
// accounting: across a dedup'd build, the batches' DedupSkippedJobs must
// sum to exactly the duplicates the dedup map collapsed, and
// SkippedTheoreticalCells to the duplicate rows' |H|·|V| volume.
func TestKernelSkippedWorkAccounting(t *testing.T) {
	ds := goldenDatasets(t)
	d := duplicated(ds["uniform"], 3)
	cfg := goldenConfigs()["uniform-nopart"].cfg
	cfg.DedupExtensions = true

	bp, err := BuildBatches(context.Background(), d, cfg.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	dev := bp.NewDevice()
	var skippedJobs int
	var skippedCells int64
	for bi := 0; bi < bp.Batches(); bi++ {
		res, err := bp.ExecBatch(dev, bi, bp.KernelConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		skippedJobs += res.DedupSkippedJobs
		skippedCells += res.SkippedTheoreticalCells
	}
	wantJobs := len(d.Comparisons) - len(ds["uniform"].Comparisons)
	if skippedJobs != wantJobs {
		t.Errorf("batches account %d skipped jobs, want %d", skippedJobs, wantJobs)
	}
	wantCells := 2 * ds["uniform"].TheoreticalCells() // 2 duplicate rows per unique
	if skippedCells != wantCells {
		t.Errorf("batches account %d skipped cells, want %d", skippedCells, wantCells)
	}
}

// mapCache is a trivial unbounded ResultCache for driver-level tests.
type mapCache struct {
	m          map[CacheKey]ipukernel.AlignOut
	hits, puts int
}

func newMapCache() *mapCache {
	return &mapCache{m: make(map[CacheKey]ipukernel.AlignOut)}
}

func (c *mapCache) Get(k CacheKey) (ipukernel.AlignOut, bool) {
	out, ok := c.m[k]
	if ok {
		c.hits++
	}
	return out, ok
}

func (c *mapCache) Put(k CacheKey, out ipukernel.AlignOut) {
	c.puts++
	c.m[k] = out
}

// TestResultCacheDriverPath: a second run over a warm cache must execute
// zero batches, report full cache hits, and return bit-identical
// per-comparison alignments.
func TestResultCacheDriverPath(t *testing.T) {
	ds := goldenDatasets(t)
	d := duplicated(ds["uniform"], 2)
	base := goldenConfigs()["uniform-nopart"].cfg

	plain, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}

	cache := newMapCache()
	cfg := base
	cfg.Cache = cache // implies dedup
	cold, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cold", cold.Results, plain.Results)
	if cold.CacheHits != 0 || cold.CacheMisses != cold.UniqueExtensions {
		t.Errorf("cold run: hits %d misses %d (unique %d)", cold.CacheHits, cold.CacheMisses, cold.UniqueExtensions)
	}
	if cache.puts != cold.UniqueExtensions {
		t.Errorf("cold run put %d entries, want %d", cache.puts, cold.UniqueExtensions)
	}

	warm, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "warm", warm.Results, plain.Results)
	if warm.Batches != 0 {
		t.Errorf("warm run executed %d batches, want 0", warm.Batches)
	}
	if warm.CacheHits != warm.UniqueExtensions || warm.CacheMisses != 0 {
		t.Errorf("warm run: hits %d misses %d (unique %d)", warm.CacheHits, warm.CacheMisses, warm.UniqueExtensions)
	}
	if warm.DeviceComputeSeconds != 0 || warm.HostBytesIn != 0 {
		t.Errorf("warm run modeled work: %g s, %d B in", warm.DeviceComputeSeconds, warm.HostBytesIn)
	}
	if warm.SkippedTheoreticalCells != plain.TheoreticalCells {
		t.Errorf("warm run skipped %d theoretical cells, want the full %d",
			warm.SkippedTheoreticalCells, plain.TheoreticalCells)
	}

	// One cache shared across two kernel configurations must never alias:
	// keys carry the kernel fingerprint, so a different X misses the
	// warmed entries and produces that configuration's own results.
	cfgX := cfg
	cfgX.Kernel.Params.X = cfg.Kernel.Params.X + 20
	plainX, err := Run(d, goldenConfigsWithX(base, cfgX.Kernel.Params.X))
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := cache.hits
	crossed, err := Run(d, cfgX)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != hitsBefore {
		t.Errorf("cache served entries across kernel configurations (%d extra hits)", cache.hits-hitsBefore)
	}
	sameResults(t, "cross-config", crossed.Results, plainX.Results)
}

// goldenConfigsWithX returns cfg with a replaced drop threshold and no
// cache — the uncached reference for the cross-config aliasing check.
func goldenConfigsWithX(cfg Config, x int) Config {
	cfg.Kernel.Params.X = x
	cfg.Cache = nil
	cfg.DedupExtensions = false
	return cfg
}
