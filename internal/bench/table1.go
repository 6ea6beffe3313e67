package bench

import (
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Table1 reproduces the optimisation ablation of Table 1: starting from a
// single tile with one thread, each row enables the next implementation
// optimisation of §4.1 and reports on-device time, GCUPS, and the speedup
// over the previous row and in total — for the 15 %-error synthetic data
// and the ELBA E. coli-like data, as the paper does.
func Table1(opt Options) error {
	opt = opt.withDefaults()
	x := 15

	type row struct {
		name string
		mut  func(*driver.Config)
	}
	fullTiles := opt.ipuModel().Tiles
	rows := []row{
		{"Single tile", func(c *driver.Config) {
			c.TilesPerIPU = 1
			c.Kernel.Threads = 1
			c.Kernel.LRSplit = false
			c.Kernel.WorkStealing = false
			c.Kernel.DualIssue = false
		}},
		{"Scale to all tiles", func(c *driver.Config) {
			c.Kernel.Threads = 1
			c.Kernel.LRSplit = false
			c.Kernel.WorkStealing = false
			c.Kernel.DualIssue = false
		}},
		{"Use 6 threads", func(c *driver.Config) {
			c.Kernel.LRSplit = false
			c.Kernel.WorkStealing = false
			c.Kernel.DualIssue = false
		}},
		{"LR splitting", func(c *driver.Config) {
			c.Kernel.WorkStealing = false
			c.Kernel.DualIssue = false
		}},
		{"Work-stealing", func(c *driver.Config) {
			c.Kernel.DualIssue = false
		}},
		{"Dual issue", func(c *driver.Config) {}},
	}

	datasets := []*workload.Dataset{opt.Table1Synthetic(), opt.Table1Ecoli()}
	for _, d := range datasets {
		tab := metrics.NewTable("Table 1 — "+d.Name+" (X=15, "+opt.ipuModel().Name+")",
			"optimisation", "time", "GCUPS", "to-prev", "total")
		var first, prev float64
		for i, r := range rows {
			cfg := opt.driverConfig(x, 256, 1)
			cfg.TilesPerIPU = fullTiles
			r.mut(&cfg)
			rep, err := driver.Run(d, cfg)
			if err != nil {
				return err
			}
			secs := rep.DeviceComputeSeconds
			gcups := rep.GCUPS(secs)
			if i == 0 {
				first, prev = secs, secs
				tab.AddRow(r.name, metrics.Seconds(secs), gcups)
			} else {
				tab.AddRow(r.name, metrics.Seconds(secs), gcups,
					ratio(prev, secs), ratio(first, secs))
				prev = secs
			}
		}
		tab.AddNote("platform scale 1/%d; GCUPS are scaled-device values (×%d for full-machine estimates)",
			opt.Scale, opt.Scale)
		tab.Render(opt.W)
	}
	return nil
}

func ratio(a, b float64) string {
	if b <= 0 {
		return "-"
	}
	return metrics.Ratio(a / b)
}

// Table1Synthetic is the ablation's synthetic dataset (smaller than
// Simulated85 because the single-tile row serialises everything).
func (o Options) Table1Synthetic() *workload.Dataset {
	d := o.withDefaults()
	s := d.Simulated85()
	return s.WithComparisons(s.Comparisons[:min(len(s.Comparisons), d.n(1800))])
}

// Table1Ecoli is the ablation's real-data analogue. It is sized to about
// five comparisons per tile — the regime the paper's tiles operate in
// ("only 5 comparisons ... have the memory", §4.1.2), where LR splitting
// and work stealing earn their keep.
func (o Options) Table1Ecoli() *workload.Dataset {
	d := o.withDefaults()
	e := d.Ecoli()
	e = e.WithComparisons(e.Comparisons[:min(len(e.Comparisons), d.n(5*d.ipuModel().Tiles))])
	e.Name = "elba-ecoli"
	return e
}

// Races reproduces the §4.1.3 measurement: racy lock-free stealing versus
// eventual work stealing with the thread-unique busy wait. Uniform-cost
// units maximise tie pressure — without variance, deterministic
// instruction latencies lock tied threads into perpetual joint execution.
func Races(opt Options) error {
	opt = opt.withDefaults()
	d := opt.Simulated85()
	// Duplicate one comparison so every unit costs exactly the same —
	// maximal tie pressure for the deterministic counters.
	cmps := make([]workload.Comparison, opt.n(600))
	for i := range cmps {
		cmps[i] = d.Comparisons[0]
	}
	d = d.WithComparisons(cmps)
	tab := metrics.NewTable("§4.1.3 — work-stealing races",
		"strategy", "races", "steals", "duplicated work", "alignments")
	for _, busy := range []bool{false, true} {
		cfg := opt.driverConfig(15, 256, 1)
		// Few tiles → long shared work lists → constant stealing.
		cfg.TilesPerIPU = max(1, len(d.Comparisons)/24)
		cfg.Kernel.BusyWaitVariance = busy
		rep, err := driver.Run(d, cfg)
		if err != nil {
			return err
		}
		name := "racy stealing"
		if busy {
			name = "eventual (busy-wait variance)"
		}
		dup := "-"
		if rep.StealOps > 0 {
			dup = metrics.Percent(100 * float64(rep.Races) / float64(rep.StealOps))
		}
		tab.AddRow(name, rep.Races, rep.StealOps, dup, len(d.Comparisons))
	}
	tab.AddNote("paper: 16K races reduced to 18 over 1.13M alignments")
	tab.Render(opt.W)
	return nil
}

// Partition reproduces the §6.2 batch-reduction measurement: graph-based
// multi-comparison partitioning versus single-comparison transfer.
func Partition(opt Options) error {
	opt = opt.withDefaults()
	tab := metrics.NewTable("§6.2 — graph partitioning effect",
		"dataset", "batches single", "batches multi", "reduction", "reuse", "bytes single", "bytes multi")
	for _, d := range []*workload.Dataset{opt.Ecoli100(), opt.Elegans()} {
		var batches [2]int
		var bytes [2]int64
		var reuse float64
		for i, part := range []bool{false, true} {
			cfg := opt.driverConfig(10, 256, 1)
			// Few tiles force multi-batch schedules at this workload
			// size, the regime where batch counts are comparable to
			// the paper's.
			cfg.TilesPerIPU = 8
			cfg.Partition = part
			plan, err := driver.NewPlan(d, cfg)
			if err != nil {
				return err
			}
			rep := plan.Schedule(1)
			batches[i] = rep.Batches
			bytes[i] = rep.HostBytesIn
			if part {
				reuse = rep.ReuseFactor
			}
		}
		red := 0.0
		if batches[0] > 0 {
			red = 100 * (1 - float64(batches[1])/float64(batches[0]))
		}
		tab.AddRow(d.Name, batches[0], batches[1],
			metrics.Percent(red), reuse, bytes[0], bytes[1])
	}
	tab.AddNote("paper: −52%% batches on ecoli100, −44%% on celegans")
	tab.Render(opt.W)
	return nil
}
