package driver

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// TestTracebackReportOracle runs every golden workload/config pair with
// traceback enabled and checks the full report-level contract: score
// fields bit-identical to the score-only run, every CIGAR valid,
// consuming exactly the aligned spans, re-scoring to the kernel score,
// and peak traceback memory bounded by the live-window band rather than
// the full matrix.
func TestTracebackReportOracle(t *testing.T) {
	ds := goldenDatasets(t)
	for name, tc := range goldenConfigs() {
		d := ds[tc.dataset]
		off, err := Run(d, tc.cfg)
		if err != nil {
			t.Fatalf("%s: score-only run: %v", name, err)
		}
		cfg := tc.cfg
		cfg.Traceback = true
		on, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s: traceback run: %v", name, err)
		}

		if on.PeakTracebackBytes <= 0 || on.TracebackBytes <= 0 {
			t.Fatalf("%s: traceback run reported no trace memory (%d peak, %d total)",
				name, on.PeakTracebackBytes, on.TracebackBytes)
		}
		if off.PeakTracebackBytes != 0 || off.TracebackBytes != 0 {
			t.Fatalf("%s: score-only run reported trace memory", name)
		}
		// The band bound: a single extension's trace is at most
		// (antidiagonals × δb/4) plus the window index — far below the
		// 4·m·n score matrix of the largest comparison.
		maxCells := int64(0)
		for _, c := range d.Comparisons {
			if n := d.Complexity(c); n > maxCells {
				maxCells = n
			}
		}
		if int64(on.PeakTracebackBytes)*4 > maxCells {
			t.Fatalf("%s: peak traceback bytes %d not far below the %d-byte full matrix",
				name, on.PeakTracebackBytes, 4*maxCells)
		}

		if len(on.Results) != len(off.Results) {
			t.Fatalf("%s: result count changed with traceback", name)
		}
		p := cfg.Kernel.Params
		for i, r := range on.Results {
			w := off.Results[i]
			if r.Score != w.Score || r.LeftScore != w.LeftScore || r.RightScore != w.RightScore ||
				r.BegH != w.BegH || r.BegV != w.BegV || r.EndH != w.EndH || r.EndV != w.EndV ||
				r.Cells != w.Cells || r.Antidiagonals != w.Antidiagonals ||
				r.MaxLiveBand != w.MaxLiveBand || r.Clamped != w.Clamped {
				t.Fatalf("%s: comparison %d score fields changed with traceback:\n on: %+v\noff: %+v", name, i, r, w)
			}
			c := d.Comparisons[i]
			h, v := d.Seq(c.H), d.Seq(c.V)
			recon, err := alignment.ScoreOf(h[r.BegH:r.EndH], v[r.BegV:r.EndV], r.Cigar,
				p.Scorer, p.Gap, p.GapOpen)
			if err != nil {
				t.Fatalf("%s: comparison %d reconstruction: %v (cigar %q)", name, i, err, r.Cigar)
			}
			if recon != r.Score {
				t.Fatalf("%s: comparison %d reconstructed score %d != kernel %d (cigar %q)",
					name, i, recon, r.Score, r.Cigar)
			}
			if r.TraceBytes <= 0 {
				t.Fatalf("%s: comparison %d has no trace-byte accounting", name, i)
			}
		}
		// The CIGAR payload rides the result link.
		if on.HostBytesOut <= off.HostBytesOut {
			t.Fatalf("%s: traceback result payload %d not above score-only %d",
				name, on.HostBytesOut, off.HostBytesOut)
		}
	}
}
