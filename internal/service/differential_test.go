// Loopback differential tests: a workload submitted over the wire — the
// full encode → HTTP → decode → shard → NDJSON stream → client assembly
// loop — must yield a report bit-identical to handing the same dataset to
// an in-process engine with the same options. This pins the whole PR's
// core promise: the service adds distribution, not drift.

package service_test

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// inProcessGoldens runs the submission sequence against a fresh local
// engine with the same options the service's shard gets, returning one
// report per submission. Submissions run sequentially, so stateful
// options (the result cache) see the same history on both sides.
func inProcessGoldens(t *testing.T, opts []engine.Option, datasets []*workload.Dataset) []*driver.Report {
	t.Helper()
	e := engine.New(opts...)
	defer e.Close()
	reps := make([]*driver.Report, len(datasets))
	for i, d := range datasets {
		job, err := e.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		reps[i], err = job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

func TestServiceLoopbackDifferential(t *testing.T) {
	cfg := testCfg(2)
	dedup, traced := cfg, cfg
	dedup.DedupExtensions = true
	traced.Traceback = true
	with := func(c driver.Config, extra ...engine.Option) []engine.Option {
		return append([]engine.Option{
			engine.WithDriverConfig(c), engine.WithQueueDepth(4), engine.WithExecutors(2),
		}, extra...)
	}
	d := readsData(t, 3, 30)
	for _, tc := range []struct {
		name    string
		opts    []engine.Option
		repeats int // total submissions of the same dataset
	}{
		{"plain", with(cfg), 1},
		{"dedup", with(dedup), 1},
		{"cache", with(dedup, engine.WithResultCache(4096)), 2},
		{"traceback", with(traced), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			datasets := make([]*workload.Dataset, tc.repeats)
			for i := range datasets {
				datasets[i] = d
			}
			wants := inProcessGoldens(t, tc.opts, datasets)

			svc, ts := serve(t, service.Config{Shards: 1, EngineOptions: tc.opts})
			c := serviceclient.New(ts.URL)

			for i, want := range wants {
				job, err := c.Submit(context.Background(), datasets[i])
				if err != nil {
					t.Fatal(err)
				}
				// Drain the stream like an interactive consumer and check
				// the per-update contract: every comparison exactly once.
				seen := make(map[int]int)
				for u := range job.Results() {
					for _, o := range u.Results {
						seen[o.GlobalID]++
					}
				}
				got, err := job.Wait(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) != len(d.Comparisons) {
					t.Fatalf("submission %d: stream covered %d of %d comparisons", i, len(seen), len(d.Comparisons))
				}
				for id, n := range seen {
					if n != 1 {
						t.Fatalf("submission %d: comparison %d streamed %d times", i, id, n)
					}
				}
				reportsEqual(t, tc.name, got, want)
			}

			if tc.name == "cache" {
				// The second identical submission must have been served
				// from the warm shard cache, not recomputed.
				if wants[1].CacheHits == 0 {
					t.Fatal("golden engine reported no cache hits on repeat submission")
				}
				st := svc.Shards()[0].Stats()
				if st.CacheHits == 0 {
					t.Fatalf("service shard saw no cache hits: %+v", st)
				}
			}
			if tc.name == "traceback" {
				got := false
				for _, o := range wants[0].Results {
					if o.Cigar != "" {
						got = true
					}
				}
				if !got {
					t.Fatal("traceback golden carried no CIGARs; differential proved nothing")
				}
			}
		})
	}
}

// TestServiceFastaSubmission: the thin-client path — plain FASTA posted
// with no workload tooling — must land the same report as building the
// equivalent dataset locally.
func TestServiceFastaSubmission(t *testing.T) {
	cfg := testCfg(1)
	opts := []engine.Option{engine.WithDriverConfig(cfg), engine.WithExecutors(1)}
	_, ts := serve(t, service.Config{Shards: 1, EngineOptions: opts})

	fasta := ">a\nACGTACGTACGTACGTACGTACGTACGTACGTACGT\n>b\nACGTACGTACGTACGTTCGTACGTACGTACGTACGT\n"
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs?k=9&name=pair", "text/x-fasta",
		newStringReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("fasta submit: %s", resp.Status)
	}
	final := drainStream(t, resp.Body)
	if final.Error != "" {
		t.Fatalf("fasta job failed: %s", final.Error)
	}
	if final.Report == nil || final.Report.Batches == 0 {
		t.Fatalf("fasta job returned no executed batches: %+v", final.Report)
	}
}
