package driver

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// TestBuildBatchesConcurrent: builds of different datasets and
// configurations running at once make exactly the plans their serial
// builds make. Under -race, state one build shares with another — a
// pooled buffer, a package-level table — shows as a race or as a
// differing plan.
func TestBuildBatchesConcurrent(t *testing.T) {
	short := shortReads
	short.MaxComparisons = 4_000
	shortD, longD, traceD := synth.Reads(short), readsData(t, 71, 200), synth.Reads(traceReads)
	dedup := testCfg(1, true)
	dedup.DedupExtensions = true
	builds := []struct {
		name string
		d    *workload.Dataset
		cfg  Config
	}{
		{"shortread", shortD, workloadCfg(5, 32, false)},
		{"long", longD, testCfg(1, true)},
		{"long-copies", longD, testCfg(2, false)},
		{"long-dedup", longD, dedup},
		{"traced", traceD, workloadCfg(15, 256, true)},
	}
	type plan struct {
		batches any
		reuse   float64
		slabs   [][]int32
	}
	planOf := func(bp *BatchPlan) plan { return plan{bp.batches, bp.reuseFactor, bp.batchSlabs} }
	serial := make([]plan, len(builds))
	for i, b := range builds {
		bp, err := BuildBatches(context.Background(), b.d, b.cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		serial[i] = planOf(bp)
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(builds)*rounds)
	for i, b := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				bp, err := BuildBatches(context.Background(), b.d, b.cfg)
				switch {
				case err != nil:
					errs <- b.name + ": " + err.Error()
				case !reflect.DeepEqual(planOf(bp), serial[i]):
					errs <- b.name + ": the concurrent plan differs from the serial one"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
