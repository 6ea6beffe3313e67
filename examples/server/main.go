// Server: the alignment system as a real networked service. The process
// boots the multi-tenant HTTP front-end on a loopback listener — a pool
// of engine shards behind POST /v1/jobs — and drives it with wire
// clients exactly the way remote tenants would: concurrent submissions
// from different tenants, one client streaming results batch by batch,
// one cancelling mid-stream, and a pipeline re-emitting a duplicate
// workload that the content-affinity routing lands on the same shard's
// warm result cache. The reports the clients assemble from the NDJSON
// streams are bit-identical to what an in-process Engine.Submit would
// have returned; the wire adds distribution, not drift.
//
// At the end the example scrapes GET /v1/stats and GET /v1/metrics —
// the JSON snapshot an autoscaler would watch and the Prometheus
// exposition a monitoring stack would collect.
package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/sram-align/xdropipu"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/synth"
)

func clientData(client int) *xdropipu.Dataset {
	return synth.Reads(synth.ReadsSpec{
		Name: fmt.Sprintf("client-%d", client), GenomeLen: 60_000,
		Coverage: 8, MeanReadLen: 1200, MinReadLen: 400, MaxReadLen: 2400,
		Errors: synth.UniformDNA(0.05), SeedLen: 17, MinOverlap: 300,
		Seed: int64(100 + client),
	})
}

func main() {
	// The service: two engine shards, each a scaled-down four-IPU fleet
	// with a cross-job result cache. Content-affinity routing sends
	// identical workloads to the same shard, so caches stay warm per
	// shard instead of being diluted across the pool.
	svc := xdropipu.NewService(xdropipu.ServiceConfig{
		Shards: 2,
		EngineOptions: []xdropipu.EngineOption{
			xdropipu.WithIPUConfig(xdropipu.IPUConfig{
				IPUs:        4,
				Model:       xdropipu.GC200,
				TilesPerIPU: 8, // scaled-down demo device
				Partition:   true,
				Kernel: xdropipu.KernelConfig{
					Params: xdropipu.Params{
						Scorer: xdropipu.DNAScorer, Gap: -1, X: 15, DeltaB: 256,
					},
					LRSplit: true, WorkStealing: true, BusyWaitVariance: true, DualIssue: true,
				},
				// Finer batches deepen the stream: consumers see steady
				// chunk-by-chunk progress over the wire.
				MaxBatchJobs: 600,
			}),
			xdropipu.WithQueueDepth(8),
			xdropipu.WithResultCache(1 << 16),
		},
	})
	defer svc.Close()

	// A real listener, a real http.Server: this is the same path
	// `xdropipu serve` takes, minus the flags.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	srv := &http.Server{
		Handler: svc.Handler(),
		// Bound slow-header and idle keep-alive connections, as `xdropipu
		// serve` does; no ReadTimeout/WriteTimeout, because uploads and
		// result streams legitimately last as long as their job.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	fmt.Printf("service listening on %s (%s row kernel)\n", base, core.RowISA())

	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			c := xdropipu.NewServiceClient(base,
				xdropipu.WithServiceTenant(fmt.Sprintf("tenant-%d", client)))
			d := clientData(client)

			job, err := c.Submit(context.Background(), d)
			if err != nil {
				fmt.Printf("client %d: submit failed: %v\n", client, err)
				return
			}

			switch client {
			case 2:
				// This client changes its mind mid-stream: DELETE the job
				// after the first chunk. The shard drops its remaining
				// batches; everyone else is unaffected.
				<-job.Results() // first chunk arrived — the job is live
				if err := job.Cancel(context.Background()); err != nil {
					fmt.Printf("client %d: cancel failed: %v\n", client, err)
					return
				}
				if _, err := job.Wait(context.Background()); err != nil {
					fmt.Printf("client %d: cancelled mid-stream: %v\n", client, err)
					return
				}
				fmt.Printf("client %d: finished before the cancel landed\n", client)
			case 3:
				// This client consumes the NDJSON stream chunk by chunk —
				// the same Update values an in-process Results() yields.
				results, batches := 0, 0
				for u := range job.Results() {
					results += len(u.Results)
					if u.Batch < 0 {
						fmt.Printf("client %d: +%d alignments from the result cache\n",
							client, len(u.Results))
						continue
					}
					batches++
					fmt.Printf("client %d: chunk %d/%d (+%d alignments, %d total)\n",
						client, batches, u.Batches, len(u.Results), results)
				}
				rep, err := job.Wait(context.Background())
				if err != nil {
					fmt.Printf("client %d: %v\n", client, err)
					return
				}
				fmt.Printf("client %d: streamed %d alignments, %.0f GCUPS\n",
					client, len(rep.Results), rep.GCUPS(rep.DeviceComputeSeconds))
			default:
				// Plain asynchronous tenants: submit, then block on join.
				rep, err := job.Wait(context.Background())
				if err != nil {
					fmt.Printf("client %d: %v\n", client, err)
					return
				}
				fmt.Printf("client %d: %d alignments in %d batches, end-to-end %.3gms\n",
					client, len(rep.Results), rep.Batches, rep.WallSeconds*1e3)
			}
		}(client)
	}
	wg.Wait()

	// A pipeline re-emits client 0's candidate wave — duplicate-heavy
	// traffic. The dataset is rebuilt from scratch, but content-affinity
	// routing hashes the sequence digests, so the repeat lands on the
	// shard that already paid for these extensions: every result comes
	// from its cache and zero batches execute.
	c := xdropipu.NewServiceClient(base, xdropipu.WithServiceTenant("pipeline"))
	if job, err := c.Submit(context.Background(), clientData(0)); err == nil {
		if rep, err := job.Wait(context.Background()); err == nil {
			fmt.Printf("\nwarm-cache replay of client 0: %d alignments, %d cache hits, %d batches executed\n",
				len(rep.Results), rep.CacheHits, rep.Batches)
		}
	}

	// What an autoscaler sees: per-shard occupancy and cache behaviour,
	// per-tenant admission counters.
	var stats xdropipu.ServiceStats
	if err := c.Stats(context.Background(), &stats); err == nil {
		fmt.Printf("\nservice: %d jobs done across %d shards, max occupancy %.2f\n",
			stats.Totals.JobsDone, len(stats.Shards), stats.Totals.QueueOccupancy)
		for _, sh := range stats.Shards {
			fmt.Printf("shard %d: %d jobs, %d batches, cache %d/%d hit/miss\n",
				sh.Shard, sh.JobsDone, sh.BatchesDone, sh.CacheHits, sh.CacheMisses)
		}
	}

	// And what a monitoring stack scrapes: a few lines of the
	// Prometheus exposition.
	if resp, err := http.Get(base + "/v1/metrics"); err == nil {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		shown := 0
		for sc.Scan() && shown < 6 {
			line := sc.Text()
			if strings.HasPrefix(line, "xdropipu_engine_jobs_done_total") ||
				strings.HasPrefix(line, "xdropipu_engine_cache_hits_total") ||
				strings.HasPrefix(line, "xdropipu_service_jobs_submitted_total") {
				fmt.Println("metric:", line)
				shown++
			}
		}
	}

	// Clean shutdown: Shutdown drains the HTTP side, Close cancels
	// whatever jobs remain and stops the shard engines.
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shctx)
	svc.Close()
	fmt.Println("\nservice drained and closed")
}
