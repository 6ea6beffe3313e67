// Command xdropipu aligns sequence pairs from a FASTA file on the
// simulated IPU system with the memory-restricted X-Drop algorithm, or
// serves that capability over HTTP.
//
// Align mode pairs sequences in file order (1st vs 2nd, 3rd vs 4th, ...);
// the seed defaults to the midpoint of each pair unless -allpairs derives
// comparisons from shared k-mers (overlap detection). Ctrl-C mid-run
// cancels the job but drains the batches already streamed, printing the
// partial results.
//
// Serve mode runs the multi-tenant alignment service: clients POST
// workloads (binary wire datasets or plain FASTA) to /v1/jobs and stream
// NDJSON results; /v1/stats and /v1/metrics expose the shard pool.
//
// Usage:
//
//	xdropipu -in reads.fasta [-x 15] [-deltab 256] [-ipus 1] [-allpairs] [-protein] [-maxslab bytes] [-spill dir]
//	xdropipu serve [-addr :8080] [-shards 1] [-ipus 1] [-cache 65536] [...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/sram-align/xdropipu"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/overlap"
	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	runAlign(os.Args[1:])
}

// runConfig is the run configuration both modes hand the engine: a GC200
// fleet with partitioning on and every Table 1 kernel optimisation.
func runConfig(ipus, x, deltaB int, protein, traceback bool, traceMin int) xdropipu.IPUConfig {
	params := xdropipu.Params{Scorer: xdropipu.DNAScorer, Gap: -1, X: x, DeltaB: deltaB}
	if protein {
		params.Scorer = xdropipu.Blosum62
		params.Gap = -2
	}
	return xdropipu.IPUConfig{
		IPUs:      ipus,
		Model:     xdropipu.GC200,
		Partition: true,
		Traceback: traceback,
		Kernel: xdropipu.KernelConfig{
			Params:           params,
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
			TraceMinScore:    traceMin,
		},
	}
}

func runAlign(args []string) {
	fs := flag.NewFlagSet("xdropipu", flag.ExitOnError)
	in := fs.String("in", "", "input FASTA file (required)")
	x := fs.Int("x", 15, "X-drop threshold")
	deltaB := fs.Int("deltab", 256, "working band budget δb (cells)")
	ipus := fs.Int("ipus", 1, "number of simulated IPUs")
	k := fs.Int("k", 17, "seed k-mer length")
	allPairs := fs.Bool("allpairs", false, "derive comparisons from shared k-mers instead of pairing file order")
	protein := fs.Bool("protein", false, "treat input as protein (BLOSUM62, gap -2)")
	maxSlab := fs.Int("maxslab", 0, "arena slab cap in bytes (0 = 2 GiB default); pools roll across slabs")
	spillDir := fs.String("spill", "", "directory for slab spill files; sealed slabs page to disk between batches")
	traceback := fs.Bool("traceback", false, "emit CIGARs")
	traceMin := fs.Int("trace-min-score", 0, "emit CIGARs only for comparisons scoring at least this (0 = all; needs -traceback)")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}

	alpha := seqio.DNAAlphabet
	if *protein {
		alpha = seqio.ProteinAlphabet
	}
	// Stream the FASTA records straight into an arena: the slab spine
	// holds Ω once, duplicate records share storage, and the whole
	// execution stack references that single copy. Pools larger than the
	// slab cap roll across slabs as they stream in.
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	arena := workload.NewArena(0, 0)
	if *maxSlab > 0 {
		arena.SetMaxSlabBytes(*maxSlab)
	}
	if *spillDir != "" {
		arena.EnableSpill(*spillDir)
	}
	ids, err := arena.AppendFasta(f, alpha)
	f.Close()
	if err != nil {
		fail(err)
	}
	seqs := arena.SeqViews()

	var cmps []workload.Comparison
	if *allPairs {
		var st overlap.Stats
		cmps, st, err = overlap.Detect(seqs, overlap.Options{
			K: *k, MinKmerFreq: 2, MinSharedSeeds: 2, Protein: *protein,
		})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "overlap detection: %d candidate pairs from %d reliable k-mers\n",
			st.Comparisons, st.ReliableKmers)
	} else {
		for i := 0; i+1 < len(seqs); i += 2 {
			h, v := seqs[i], seqs[i+1]
			if len(h) < *k || len(v) < *k {
				continue
			}
			cmps = append(cmps, workload.Comparison{
				H: i, V: i + 1,
				SeedH: (len(h) - *k) / 2, SeedV: (len(v) - *k) / 2, SeedLen: *k,
			})
		}
	}
	if len(cmps) == 0 {
		fail(fmt.Errorf("no comparisons to run"))
	}
	d := arena.NewDataset(*in, workload.PlanOf(cmps), *protein)
	if *spillDir != "" {
		// Sealed slabs page out to -spill; batches fault their sets back in.
		arena.Seal()
		if _, err := arena.Spill(); err != nil {
			fail(err)
		}
		defer arena.Close()
	}

	// Submit through the persistent engine: results stream back batch by
	// batch, and Ctrl-C cancels the job (planning included) while keeping
	// the batches already delivered.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := xdropipu.NewEngine(xdropipu.WithIPUConfig(
		runConfig(*ipus, *x, *deltaB, *protein, *traceback, *traceMin)))
	defer eng.Close()
	job, err := eng.Submit(ctx, d)
	if err != nil {
		fail(err)
	}
	// Accumulate the stream as it arrives: on a clean run the report
	// carries everything anyway, but an interrupted job still owes the
	// user whatever completed before the signal.
	partial := make([]*ipukernel.AlignOut, len(d.Comparisons))
	done, streamed := 0, 0
	for u := range job.Results() {
		done++
		for i := range u.Results {
			r := &u.Results[i]
			if partial[r.GlobalID] == nil {
				streamed++
			}
			partial[r.GlobalID] = r
		}
		fmt.Fprintf(os.Stderr, "batch %d/%d: %d alignments\r", done, u.Batches, len(u.Results))
	}
	fmt.Fprintln(os.Stderr)
	rep, err := job.Wait(context.Background())
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			fail(err)
		}
		// Interrupted mid-stream: drain what completed and report it as
		// the partial run it is, instead of discarding finished work.
		fmt.Println("#h\tv\tscore\tbegH\tendH\tbegV\tendV")
		for i, r := range partial {
			if r == nil {
				continue
			}
			c := d.Comparisons[i]
			fmt.Printf("%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				ids[c.H], ids[c.V], r.Score, r.BegH, r.EndH, r.BegV, r.EndV)
		}
		fmt.Fprintf(os.Stderr,
			"interrupted: %d/%d alignments completed across %d batches before cancellation\n",
			streamed, len(d.Comparisons), done)
		os.Exit(130)
	}

	fmt.Println("#h\tv\tscore\tbegH\tendH\tbegV\tendV")
	for i, r := range rep.Results {
		c := d.Comparisons[i]
		fmt.Printf("%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			ids[c.H], ids[c.V], r.Score, r.BegH, r.EndH, r.BegV, r.EndV)
	}
	fmt.Fprintf(os.Stderr,
		"%d alignments on %d simulated IPU(s): device %.3gms, end-to-end %.3gms, %.0f GCUPS, %d batches, reuse %.2f×\n",
		len(rep.Results), *ipus, rep.DeviceComputeSeconds*1e3, rep.WallSeconds*1e3,
		rep.GCUPS(rep.DeviceComputeSeconds), rep.Batches, rep.ReuseFactor)
	if *spillDir != "" {
		st := arena.Residency()
		fmt.Fprintf(os.Stderr, "arena spine: %d slabs, %d spills, %d faults\n",
			st.Slabs, st.Spills, st.Faults)
	}
}

func runServe(args []string) {
	fs := flag.NewFlagSet("xdropipu serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 1, "engine shards (independent fleets + caches)")
	ipus := fs.Int("ipus", 1, "simulated IPUs per shard")
	tiles := fs.Int("tiles", 0, "tiles per IPU (0 = model default)")
	x := fs.Int("x", 15, "X-drop threshold")
	deltaB := fs.Int("deltab", 256, "working band budget δb (cells)")
	protein := fs.Bool("protein", false, "protein scoring (BLOSUM62, gap -2)")
	cache := fs.Int("cache", 0, "cross-job result cache entries per shard (0 = off)")
	dedup := fs.Bool("dedup", false, "deduplicate identical extensions within a job")
	traceback := fs.Bool("traceback", false, "emit CIGARs")
	traceMin := fs.Int("trace-min-score", 0, "emit CIGARs only for comparisons scoring at least this (0 = all; needs -traceback)")
	window := fs.Int("window", 256, "replay window (chunks) per job for stream resume")
	linger := fs.Duration("linger", 0, "default grace before a disconnected job is cancelled")
	rate := fs.Float64("tenant-rate", 0, "per-tenant admitted jobs per second (0 = unlimited)")
	burst := fs.Int("tenant-burst", 4, "per-tenant admission burst")
	maxLive := fs.Int("max-live", 0, "live jobs per shard before shedding (0 = queue depth)")
	fs.Parse(args)

	cfg := runConfig(*ipus, *x, *deltaB, *protein, *traceback, *traceMin)
	cfg.TilesPerIPU = *tiles
	cfg.DedupExtensions = *dedup
	opts := []xdropipu.EngineOption{xdropipu.WithIPUConfig(cfg)}
	if *cache > 0 {
		opts = append(opts, xdropipu.WithResultCache(*cache))
	}
	svc := xdropipu.NewService(xdropipu.ServiceConfig{
		Shards: *shards, EngineOptions: opts,
		WindowChunks: *window, Linger: *linger,
		TenantRatePerSec: *rate, TenantBurst: *burst, MaxLiveJobs: *maxLive,
	})

	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Serve result streams over h2c as well as HTTP/1.1: one client
		// can multiplex many job streams on a single connection.
		Protocols: serveProtocols(),
		// A client that opens a connection and never finishes its request
		// headers, or parks an idle keep-alive connection, must not hold a
		// socket forever. ReadTimeout and WriteTimeout stay unset on
		// purpose: both bound the whole exchange, and a dataset upload or
		// an NDJSON result stream legitimately lasts as long as its job.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "xdropipu serve: listening on %s (%d shard(s), %d IPU(s) each, %s row kernel)\n",
		*addr, *shards, *ipus, core.RowISA())

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful teardown: stop accepting, give attached streams a moment
	// to observe their final records, then cancel whatever is left and
	// print the shard stats the process is walking away from.
	fmt.Fprintln(os.Stderr, "xdropipu serve: signal received, draining")
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shctx)
	svc.Close()
	for i, e := range svc.Shards() {
		st := e.Stats()
		fmt.Fprintf(os.Stderr,
			"shard %d: %d jobs, %d batches, %d cells, cache %d/%d hit/miss, %d retries\n",
			i, st.JobsDone, st.BatchesDone, st.CellsDone, st.CacheHits, st.CacheMisses, st.Retries)
	}
}

func serveProtocols() *http.Protocols {
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &p
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xdropipu:", err)
	os.Exit(1)
}
