package bench

import (
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// The four evaluation datasets of Table 2, reproduced at reduced scale.
// Comparison counts are sized to saturate the scaled device (tiles ×
// threads × a few units each); read lengths are ~2.5–5× shorter than the
// paper's so a full harness run stays within a test budget. Length
// *distributions* (fixed-length synthetic vs log-normal reads),
// seed-position spread and error profiles match the paper's descriptions
// (§5.2); the table2 runner prints the resulting statistics.

// Simulated85 mirrors simulated85: equal-length pairs, 15 % uniform
// error, centred seeds, no sequence reuse.
func (o Options) Simulated85() *workload.Dataset {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count:     o.n(2400),
		Length:    2000,
		ErrorRate: 0.15,
		SeedLen:   17,
		Seed:      o.Seed + 1,
	})
	d.Name = "simulated85"
	return d
}

// Ecoli mirrors the E. coli 29x row: long reads, moderate comparison
// volume, long-tailed lengths.
func (o Options) Ecoli() *workload.Dataset {
	d := synth.Reads(synth.ReadsSpec{
		Name:        "ecoli",
		GenomeLen:   o.n(1_000_000),
		Coverage:    10,
		MeanReadLen: 2900, MinReadLen: 600, MaxReadLen: 6000,
		Errors:         synth.HiFiDNA(),
		SeedLen:        17,
		MinOverlap:     700,
		MaxComparisons: o.n(2600),
		Seed:           o.Seed + 2,
	})
	return d
}

// Ecoli100 mirrors the E. coli 100x row: deeper coverage, shorter reads,
// many more comparisons.
func (o Options) Ecoli100() *workload.Dataset {
	d := synth.Reads(synth.ReadsSpec{
		Name:        "ecoli100",
		GenomeLen:   o.n(600_000),
		Coverage:    30,
		MeanReadLen: 1450, MinReadLen: 300, MaxReadLen: 3300,
		Errors:         synth.HiFiDNA(),
		SeedLen:        17,
		MinOverlap:     350,
		MaxComparisons: o.n(5200),
		Seed:           o.Seed + 3,
	})
	return d
}

// Elegans mirrors the C. elegans row: the largest genome, long reads.
func (o Options) Elegans() *workload.Dataset {
	d := synth.Reads(synth.ReadsSpec{
		Name:        "celegans",
		GenomeLen:   o.n(1_600_000),
		Coverage:    10,
		MeanReadLen: 2900, MinReadLen: 700, MaxReadLen: 6000,
		Errors:         synth.HiFiDNA(),
		SeedLen:        17,
		MinOverlap:     700,
		MaxComparisons: o.n(2800),
		Seed:           o.Seed + 4,
	})
	return d
}

// StandaloneDatasets returns the four Table 2 datasets in paper order.
func (o Options) StandaloneDatasets() []*workload.Dataset {
	return []*workload.Dataset{o.Simulated85(), o.Ecoli(), o.Ecoli100(), o.Elegans()}
}
