package ipukernel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
)

// sideCalls counts, per extension side, the sides core scores and the
// recordings it runs.
type sideCalls struct{ score, record [2]atomic.Int64 }

// countSideCalls wraps the score entry and every recording entry point in
// sides with a counting shim until the test ends.
func countSideCalls(t *testing.T) *sideCalls {
	t.Helper()
	n := &sideCalls{}
	saved, savedBatch := sides, extendBatch
	t.Cleanup(func() { sides, extendBatch = saved, savedBatch })
	extendBatch = func(ws *core.Workspace, p *core.Params, batch []core.Side, out []core.Result) {
		for _, s := range batch {
			if s.Left {
				n.score[left].Add(1)
			} else {
				n.score[right].Add(1)
			}
		}
		savedBatch(ws, p, batch, out)
	}
	for s := range sides {
		sd := &sides[s]
		record := sd.record
		sd.record = func(ws *core.Workspace, h, v []byte, hOff, vOff int, p core.Params, runs []alignment.Run) (core.Result, core.Trace, []alignment.Run, error) {
			n.record[s].Add(1)
			return record(ws, h, v, hOff, vOff, p, runs)
		}
	}
	return n
}

// TestTraceRecordingBugFailsBatch: a recording error that is not an
// overflow — core's re-price error for a corrupt direction code, say — on
// the one host sweep of a replay-charged side fails the whole batch rather
// than degrading its comparison. The gated row's cutoff is above every
// score: the gate filters recorded results, so a recording bug on a
// comparison it skips still fails the batch.
func TestTraceRecordingBugFailsBatch(t *testing.T) {
	saved := sides
	t.Cleanup(func() { sides = saved })
	bug := errors.New("corrupt direction code")
	record := sides[right].record
	sides[right].record = func(ws *core.Workspace, h, v []byte, hOff, vOff int, p core.Params, runs []alignment.Run) (core.Result, core.Trace, []alignment.Run, error) {
		r, trc, runs, _ := record(ws, h, v, hOff, vOff, p, runs)
		return r, trc, runs, bug
	}
	for _, run := range []struct {
		name string
		cut  int
	}{{"ungated", 0}, {"gated", 1 << 30}} {
		cfg := dnaCfg(15)
		cfg.Traceback, cfg.TraceMinScore = true, run.cut
		_, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), scheduleBatch(t, 600), cfg)
		if !errors.Is(err, bug) {
			t.Errorf("%s: Run returned %v, want the recording error", run.name, err)
		}
	}
}

// TestTraceHostSweepsOnce pins which host sweeps a traced extension costs:
// one recording sweep and no score pass, whether the modeled device fuses
// it (400 bp) or scores and replays it (600 bp, over fusedTraceBudget, and
// every side of a gated run, whose gate filters the recorded results). The racy schedule duplicates units on
// the device, never on the host.
func TestTraceHostSweepsOnce(t *testing.T) {
	for _, length := range []int{400, 600} {
		for _, run := range []struct {
			name string
			mut  func(*Config)
		}{
			{"ungated-wide", func(c *Config) {}},
			{"gated", func(c *Config) { c.TraceMinScore = pinGateScore }},
		} {
			t.Run(fmt.Sprintf("%s/%d", run.name, length), func(t *testing.T) {
				cfg := dnaCfg(15)
				cfg.Traceback, cfg.LRSplit, cfg.WorkStealing = true, true, true
				run.mut(&cfg)
				b := scheduleBatch(t, length)
				n := countSideCalls(t)
				res := mustRun(t, ipu.New(ipu.Config{Model: platform.GC200}), b, cfg)
				if res.TracedExtensions == 0 {
					t.Fatal("no extension traced")
				}
				// Every side of every job recorded once, none scored.
				jobs := int64(0)
				for i := range b.Tiles {
					jobs += int64(len(b.Tiles[i].Jobs))
				}
				want := [2]int64{0, jobs}
				for s := range sides {
					got := [2]int64{n.score[s].Load(), n.record[s].Load()}
					if got != want {
						t.Errorf("%s side: score/record calls %v, want %v", [2]string{"left", "right"}[s], got, want)
					}
				}
			})
		}
	}
}
