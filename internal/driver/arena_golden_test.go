package driver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// reportFingerprint hashes every result field and report aggregate, so two
// fingerprints match only when the reports are bit-identical (floats
// compared by their exact bit patterns).
func reportFingerprint(rep *Report) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	putF := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	for _, o := range rep.Results {
		put(int64(o.GlobalID))
		put(int64(o.Score))
		put(int64(o.LeftScore))
		put(int64(o.RightScore))
		put(int64(o.BegH))
		put(int64(o.BegV))
		put(int64(o.EndH))
		put(int64(o.EndV))
		put(o.Cells)
		put(int64(o.Antidiagonals))
		put(int64(o.MaxLiveBand))
		if o.Clamped {
			put(1)
		} else {
			put(0)
		}
	}
	put(int64(rep.Batches))
	put(rep.HostBytesIn)
	put(rep.HostBytesOut)
	put(rep.TheoreticalCells)
	put(rep.Cells)
	put(rep.SumBand)
	put(rep.Antidiags)
	put(int64(rep.Races))
	put(int64(rep.StealOps))
	put(int64(rep.Clamped))
	put(int64(rep.MaxSRAM))
	putF(rep.ReuseFactor)
	putF(rep.DeviceComputeSeconds)
	putF(rep.WallSeconds)
	putF(rep.TransferSeconds)
	return fmt.Sprintf("%x", h.Sum(nil))[:32]
}

func goldenDatasets(t testing.TB) map[string]*workload.Dataset {
	t.Helper()
	uni := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 24, Length: 900, ErrorRate: 0.15, SeedLen: 17, Seed: 101})
	reads := synth.Reads(synth.ReadsSpec{
		Name: "golden-reads", GenomeLen: 60_000, Coverage: 8, MeanReadLen: 1800,
		MinReadLen: 400, Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500,
		Seed: 202, MaxComparisons: 160})
	prot, _ := synth.ProteinFamilies(synth.ProteinFamiliesSpec{
		Families: 6, MembersPerFamily: 4, MeanLen: 300, MutRate: 0.15, Seed: 303})
	var pc []workload.Comparison
	for f := 0; f < 6; f++ {
		base := f * 4
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				pc = append(pc, workload.Comparison{H: base + a, V: base + b, SeedH: 0, SeedV: 0, SeedLen: 3})
			}
		}
	}
	return map[string]*workload.Dataset{"uniform": uni, "reads": reads, "protein": prot.WithComparisons(pc)}
}

func goldenConfigs() map[string]struct {
	dataset string
	cfg     Config
} {
	dna := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256}
	blosum := core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49, DeltaB: 256}
	return map[string]struct {
		dataset string
		cfg     Config
	}{
		"uniform-nopart": {"uniform", Config{IPUs: 1, Kernel: ipukernel.Config{Params: dna}}},
		"reads-partition": {"reads", Config{IPUs: 2, Partition: true,
			Kernel: ipukernel.Config{Params: dna, LRSplit: true, WorkStealing: true, BusyWaitVariance: true}}},
		"reads-dualissue": {"reads", Config{IPUs: 1, Partition: true, MaxBatchJobs: 24,
			Kernel: ipukernel.Config{Params: dna, DualIssue: true}}},
		"protein": {"protein", Config{IPUs: 1, Partition: true, Kernel: ipukernel.Config{Params: blosum}}},
	}
}

// TestGoldenReportsPreArena pins the reports to SHA-256 fingerprints
// captured on the pre-arena stack (PR 2, commit 5feb241): the arena
// refactor must keep every score, end point, cell count, live band,
// transfer byte and modeled second bit-identical.
func TestGoldenReportsPreArena(t *testing.T) {
	want := map[string]string{
		"uniform-nopart":  "1af62ecbe0f954418deba2d14ba53f0a",
		"reads-partition": "d0d11eb49dfe8d774a48554fc4a514d2",
		"reads-dualissue": "e72cd1e3929274c8b4ab2f9602f2b5e7",
		"protein":         "7a5f81b1744f296d373ea2ad05c196a3",
	}
	ds := goldenDatasets(t)
	for name, tc := range goldenConfigs() {
		rep, err := Run(ds[tc.dataset], tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reportFingerprint(rep); got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s (report not bit-identical to pre-arena stack)", name, got, want[name])
		}
	}
}

// TestArenaPathMatchesReferenceOracle: alignments executed with the
// default algorithm through the full arena spine (arena → plan → partition
// → tiles → kernel) must equal the X-Drop oracle (internal/oracle) run
// directly on the raw sequences.
func TestArenaPathMatchesReferenceOracle(t *testing.T) {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 8, Length: 220, ErrorRate: 0.12, SeedLen: 13, Seed: 404})
	p := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 12}
	rep := mustRun(t, d, Config{IPUs: 1, Partition: true, Kernel: ipukernel.Config{Params: p}})
	for ci, c := range d.Comparisons {
		want := oracle.Seed(d.Seq(c.H), d.Seq(c.V), c.SeedH, c.SeedV, c.SeedLen, p.Scorer.Table(), p.Gap, p.X)
		got := rep.Results[ci]
		if got.Score != want.Score || got.LeftScore != want.Left || got.RightScore != want.Right ||
			got.BegH != want.BegH || got.EndH != want.EndH || got.BegV != want.BegV || got.EndV != want.EndV {
			t.Errorf("cmp %d: arena path %+v != oracle %+v", ci, got, want)
		}
	}
}
