package bench

import (
	"github.com/sram-align/xdropipu/internal/metrics"
)

// Table2 reproduces the dataset-statistics table: comparison count,
// average sequence length, the P10/avg/P90 of the left and right
// extension lengths and the average complexity (|H|·|V|) per comparison.
func Table2(opt Options) error {
	opt = opt.withDefaults()
	tab := metrics.NewTable("Table 2 — datasets",
		"name", "cmp count", "seqlen avg",
		"L P10", "L avg", "L P90",
		"R P10", "R avg", "R P90",
		"complexity avg")
	for _, d := range opt.StandaloneDatasets() {
		if err := d.Validate(); err != nil {
			return err
		}
		var seqLens []int
		for i := range d.NumSeqs() {
			seqLens = append(seqLens, d.SeqLen(i))
		}
		var lExt, rExt []int
		var complexity float64
		for _, c := range d.Comparisons {
			lh, lv, rh, rv := d.ExtensionLens(c)
			lExt = append(lExt, lh, lv)
			rExt = append(rExt, rh, rv)
			complexity += float64(d.Complexity(c))
		}
		if len(d.Comparisons) > 0 {
			complexity /= float64(len(d.Comparisons))
		}
		tab.AddRow(d.Name, len(d.Comparisons), metrics.MeanInts(seqLens),
			metrics.PercentileInts(lExt, 10), metrics.MeanInts(lExt), metrics.PercentileInts(lExt, 90),
			metrics.PercentileInts(rExt, 10), metrics.MeanInts(rExt), metrics.PercentileInts(rExt, 90),
			complexity)
	}
	tab.AddNote("lengths ≈ paper/2.5, comparison counts sized to saturate the 1/%d-scale device", opt.Scale)
	tab.Render(opt.W)
	return nil
}
