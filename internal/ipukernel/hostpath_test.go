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

// sideCalls counts, per extension side, the host calls of core's two
// entry points.
type sideCalls struct{ score, record [2]atomic.Int64 }

// countSideCalls wraps every entry point in sides with a counting shim
// until the test ends.
func countSideCalls(t *testing.T) *sideCalls {
	t.Helper()
	n := &sideCalls{}
	saved := sides
	t.Cleanup(func() { sides = saved })
	for s := range sides {
		sd := &sides[s]
		score, record := sd.score, sd.record
		sd.score = func(ws *core.Workspace, h, v []byte, hOff, vOff int, p core.Params) core.Result {
			n.score[s].Add(1)
			return score(ws, h, v, hOff, vOff, p)
		}
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
// than degrading its comparison.
func TestTraceRecordingBugFailsBatch(t *testing.T) {
	saved := sides
	t.Cleanup(func() { sides = saved })
	bug := errors.New("corrupt direction code")
	record := sides[right].record
	sides[right].record = func(ws *core.Workspace, h, v []byte, hOff, vOff int, p core.Params, runs []alignment.Run) (core.Result, core.Trace, []alignment.Run, error) {
		r, trc, runs, _ := record(ws, h, v, hOff, vOff, p, runs)
		return r, trc, runs, bug
	}
	cfg := dnaCfg(15)
	cfg.Traceback = true
	_, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), scheduleBatch(t, 600), cfg)
	if !errors.Is(err, bug) {
		t.Fatalf("Run returned %v, want the recording error", err)
	}
}

// TestTraceHostSweepsOnce pins which host sweeps a traced extension costs.
// An ungated wide extension is swept once by the recording sweep whether
// the modeled device fuses it (400 bp) or scores and replays it (600 bp,
// over fusedTraceBudget); a gated run scores every side and replays the
// above-cutoff ones; a narrow-tier run scores and replays every side. The
// racy schedule duplicates units on the device, never on the host.
func TestTraceHostSweepsOnce(t *testing.T) {
	for _, length := range []int{400, 600} {
		for _, run := range []struct {
			name string
			mut  func(*Config)
			// twoPass: the host scores every side, then records each traced
			// one; otherwise it only records, in one sweep per side.
			twoPass bool
		}{
			{"ungated-wide", func(c *Config) {}, false},
			{"gated", func(c *Config) { c.TraceMinScore = pinGateScore }, true},
			{"narrow", func(c *Config) { c.Params.Tier = core.TierNarrow }, true},
		} {
			t.Run(fmt.Sprintf("%s/%d", run.name, length), func(t *testing.T) {
				cfg := dnaCfg(15)
				cfg.Traceback, cfg.LRSplit, cfg.WorkStealing = true, true, true
				run.mut(&cfg)
				b := scheduleBatch(t, length)
				n := countSideCalls(t)
				res, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.TracedExtensions == 0 {
					t.Fatal("no extension traced")
				}
				// Every side of every job, and each traced side once.
				jobs, traced := int64(b.Jobs()), int64(res.TracedExtensions/2)
				want := [2]int64{0, jobs}
				if run.twoPass {
					want = [2]int64{jobs, traced}
				}
				for s := range sides {
					got := [2]int64{n.score[s].Load(), n.record[s].Load()}
					if got != want {
						t.Errorf("%s side: score/record calls %v, want %v", sides[s].name, got, want)
					}
				}
			})
		}
	}
}
