package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/partition"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// The traced run attributes one job's time to layers from the outside in.
// The layers expose no hooks yet, so the benchmark re-creates the job
// pipeline by hand from each layer's public functions (the replica) with
// a span around each call, and times the calls a stage makes internally
// on their own, on the same inputs. The real paths — engine, service,
// client — are then timed whole, and what they add over the layer below
// is reported as that layer's overhead.

// minTraceReps repetitions at least feed every median.
const minTraceReps = 5

// sweepComparisons bounds the kernel-variant sweep: enough cells for a
// stable rate (~8 Mcells) without the sweep crowding out the replica.
const sweepComparisons = 256

// samples collects one value per repetition and metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// layerTrace is everything the per-layer repetitions share.
type layerTrace struct {
	ctx     context.Context
	tr      *tracer
	data    *workload.Dataset
	payload []byte
	cfg     driver.Config // the engine's normalized config, cache included
	eng     *engine.Engine
	svcURL  string
	stubURL string
	stream  []byte // one recorded NDJSON result stream
	hc      *http.Client
	sweep   []seedExtension // the kernel-variant sweep's inputs
	closers []func()

	times  samples
	counts map[string]float64
}

// newLayerTrace starts an engine, a service and a stub server configured
// like the workload and, on the warm workload, fills their caches.
func newLayerTrace(ctx context.Context, s spec, seed int64, size float64, d *workload.Dataset, tr *tracer) (*layerTrace, error) {
	lt := &layerTrace{ctx: ctx, tr: tr, data: d, times: samples{},
		counts: map[string]float64{"service.refused_429": 0}}
	var err error
	if lt.payload, err = wire.EncodeDataset(d); err != nil {
		return nil, err
	}
	lt.eng = engine.New(s.engineOptions()...)
	lt.closers = append(lt.closers, func() { lt.eng.Close() })
	lt.cfg = lt.eng.Config()

	var stopService func()
	lt.svcURL, lt.hc, stopService = startService(s)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the client's upload is part of what replay_s times
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		w.Write(lt.stream)
	}))
	lt.stubURL = stub.URL
	lt.closers = append(lt.closers, stopService, stub.Close)

	// One job through each real path records the stream the stub replays;
	// on the warm workload an earlier one fills each cache, so the
	// recording and every repetition are cache-served.
	if s.warm {
		j, err := lt.eng.Submit(ctx, d)
		if err == nil {
			_, err = j.Wait(ctx)
		}
		if err == nil {
			_, err = lt.rawJob(io.Discard)
		}
		if err != nil {
			lt.close()
			return nil, err
		}
	}
	var rec bytes.Buffer
	if _, err := lt.rawJob(&rec); err != nil {
		lt.close()
		return nil, err
	}
	lt.stream = rec.Bytes()
	lt.counts["service.chunks"] = float64(bytes.Count(lt.stream, []byte(`{"chunk":`)))

	longReads := specs[0].datasets(seed, size)[0]
	lt.sweep = planExtensions(longReads, min(len(longReads.Comparisons), max(16, int(sweepComparisons*size))))
	return lt, nil
}

func (lt *layerTrace) close() {
	for i := len(lt.closers) - 1; i >= 0; i-- {
		lt.closers[i]()
	}
}

// rawJob posts the encoded dataset with a bare HTTP client and drains the
// result stream into w, returning the stream's size.
func (lt *layerTrace) rawJob(w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(lt.ctx, http.MethodPost, lt.svcURL+"/v1/jobs", bytes.NewReader(lt.payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeDataset)
	resp, err := lt.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		lt.counts["service.refused_429"]++
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("raw job: %s", resp.Status)
	}
	return io.Copy(w, resp.Body)
}

// execPool mirrors driver.NewPlanContext's worker pool over ExecBatch,
// with a span per batch.
func (lt *layerTrace) execPool(bp *driver.BatchPlan, parent, rep int) ([]*ipukernel.BatchResult, error) {
	n := bp.Batches()
	outs := make([]*ipukernel.BatchResult, n)
	errs := make([]error, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	kcfg := bp.KernelConfig(workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := bp.NewDevice()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= n {
					return
				}
				sp := lt.tr.begin("driver.exec_batch", parent, rep)
				outs[bi], errs[bi] = bp.ExecBatch(dev, bi, kcfg)
				lt.tr.end(sp)
			}
		}()
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

// replicaRun is one pass of the hand-built pipeline: what it produced
// and how long each stage took.
type replicaRun struct {
	data                *workload.Dataset
	bp                  *driver.BatchPlan
	outs                []*ipukernel.BatchResult
	report              *driver.Report
	buildSpan, execSpan int

	decode, build, exec, assemble, schedule, wall float64
}

// rep runs one repetition of every layer measurement. Each group starts
// from a collected heap, so it is not charged for the garbage of the
// group before it.
func (lt *layerTrace) rep(n int) error {
	runtime.GC()
	r, err := lt.replica(n)
	if err != nil {
		return err
	}
	runtime.GC()
	batches, err := lt.buildChildren(n, r)
	if err != nil {
		return err
	}
	if err := lt.execChildren(n, r, batches); err != nil {
		return err
	}
	if err := lt.wireCodecs(n, r); err != nil {
		return err
	}
	if err := lt.realPaths(n, r); err != nil {
		return err
	}
	return lt.variantSweep(n)
}

// replica runs the job pipeline stage by stage, a span around each.
func (lt *layerTrace) replica(n int) (*replicaRun, error) {
	tr, cfg := lt.tr, lt.cfg
	r := &replicaRun{}
	var err error
	root := tr.begin("replica", 0, n)
	sp := tr.begin("wire.decode_dataset", root, n)
	r.data, err = wire.DecodeDataset(lt.payload)
	r.decode = tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.buildSpan = tr.begin("driver.build_batches", root, n)
	r.bp, err = driver.BuildBatches(lt.ctx, r.data, cfg)
	r.build = tr.end(r.buildSpan)
	if err != nil {
		return nil, err
	}
	r.execSpan = tr.begin("driver.exec", root, n)
	r.outs, err = lt.execPool(r.bp, r.execSpan, n)
	r.exec = tr.end(r.execSpan)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("driver.assemble", root, n)
	plan, err := driver.AssemblePlan(r.bp, r.outs)
	r.assemble = tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("driver.schedule", root, n)
	r.report = plan.Schedule(cfg.IPUs)
	r.schedule = tr.end(sp)
	r.wall = tr.end(root)
	if rep := r.report; rep.CacheHits > 0 && rep.CacheMisses > 0 {
		return nil, fmt.Errorf("replica saw %d cache hits and %d misses; the breakdown assumes all or nothing",
			rep.CacheHits, rep.CacheMisses)
	}

	t, c, rep := lt.times, lt.counts, r.report
	t.add("wire.decode_dataset_s", r.decode)
	t.add("driver.build_batches_s", r.build)
	t.add("driver.exec_wall_s", r.exec)
	t.add("driver.assemble_s", r.assemble)
	t.add("driver.schedule_s", r.schedule)
	t.add("trace.replica_wall_s", r.wall)
	c["partition.reuse_factor"] = rep.ReuseFactor
	c["driver.cache_hits"] = float64(rep.CacheHits)
	c["driver.cache_misses"] = float64(rep.CacheMisses)
	c["ipu.modeled_wall_s"] = rep.WallSeconds
	c["ipu.transfer_s"] = rep.TransferSeconds
	c["ipu.host_bytes_in"] = float64(rep.HostBytesIn)
	c["ipu.host_bytes_out"] = float64(rep.HostBytesOut)
	return r, nil
}

// buildChildren times what BuildBatches calls, each on its own, and
// returns the batches the standalone partition made (none when the cache
// served everything).
func (lt *layerTrace) buildChildren(n int, r *replicaRun) ([]*ipukernel.Batch, error) {
	tr, cfg, d := lt.tr, lt.cfg, r.data
	arena, cmps := d.Spine()
	var dm *workload.DedupMap
	dedup := tr.standalone("workload.dedup_plan", r.buildSpan, n, func() { dm = arena.DedupPlan(cmps) })
	children := 0.0
	if cfg.DedupExtensions || cfg.Cache != nil {
		children += dedup
	}
	var batches []*ipukernel.Batch
	var budgetS, itemsS, batchesS float64
	if r.report.Batches > 0 {
		var budget int
		var err error
		budgetS = tr.standalone("partition.derive_budget", r.buildSpan, n, func() {
			budget, err = partition.DeriveSeqBudget(d, cfg.Kernel, cfg.Model)
		})
		if err != nil {
			return nil, err
		}
		tiles := cfg.EffectiveTiles()
		target := tiles * cfg.SpreadFactor
		var items []partition.Item
		itemsS = tr.standalone("partition.build_items", r.buildSpan, n, func() {
			items = partition.BuildItems(d, partition.Options{
				SeqBudget: budget, Reuse: cfg.Partition,
				MaxCmps: (len(d.Comparisons) + target - 1) / target,
			})
		})
		batchesS = tr.standalone("partition.make_batches", r.buildSpan, n, func() {
			batches, err = partition.MakeBatchesFanout(d, items, tiles, cfg.Kernel, cfg.Model, cfg.MaxBatchJobs, nil)
		})
		if err != nil {
			return nil, err
		}
		if len(batches) != r.report.Batches {
			return nil, fmt.Errorf("standalone partition made %d batches, BuildBatches %d", len(batches), r.report.Batches)
		}
		children += budgetS + itemsS + batchesS
	}
	buildSelf := max(0, r.build-children)
	tilesUsed := 0
	for _, b := range batches {
		tilesUsed += len(b.Tiles)
	}

	t, c := lt.times, lt.counts
	t.add("workload.dedup_plan_s", dedup)
	t.add("partition.derive_budget_s", budgetS)
	t.add("partition.build_items_s", itemsS)
	t.add("partition.make_batches_s", batchesS)
	t.add("driver.build_self_s", buildSelf)
	t.add("trace.self_sum_ratio", (r.decode+buildSelf+children+r.exec+r.assemble+r.schedule)/r.wall)
	c["workload.dedup_ratio"] = float64(len(dm.RowUID)) / float64(dm.Unique())
	c["workload.arena_bytes"] = float64(arena.SlabBytes())
	c["partition.batches"] = float64(len(batches))
	c["partition.tiles_used"] = float64(tilesUsed)
	return batches, nil
}

// execChildren times what ExecBatch calls, each on its own: the slab
// pin, the tile model on one goroutine (so its time is CPU time,
// comparable with the single-goroutine core loop), and core alone over
// the same extensions in the same order.
func (lt *layerTrace) execChildren(n int, r *replicaRun, batches []*ipukernel.Batch) error {
	tr, cfg := lt.tr, lt.cfg
	arena, _ := r.data.Spine()
	slabSets := make([][]int32, len(batches))
	for bi, b := range batches {
		seen := map[int32]bool{}
		for ti := range b.Tiles {
			for _, ref := range b.Tiles[ti].Seqs {
				if !seen[ref.Slab] {
					seen[ref.Slab] = true
					slabSets[bi] = append(slabSets[bi], ref.Slab)
				}
			}
		}
	}
	var err error
	pinS := tr.standalone("workload.pin", r.execSpan, n, func() {
		for _, set := range slabSets {
			var pin *workload.SlabPin
			if pin, err = arena.Pin(set); err != nil {
				return
			}
			pin.Release()
		}
	})
	if err != nil {
		return err
	}

	kcfg := cfg.Kernel
	kcfg.Parallelism = 1
	var runBusy, modeledCompute, extendS float64
	stealOps, maxSRAM := 0, 0
	var cc coreCounts
	if len(batches) > 0 {
		pin, err := arena.PinAll()
		if err != nil {
			return err
		}
		defer pin.Release()
		dev := r.bp.NewDevice()
		for _, b := range batches {
			var res *ipukernel.BatchResult
			runBusy += tr.standalone("ipukernel.run", r.execSpan, n, func() {
				res, err = ipukernel.Run(dev, b.Bound(pin.Slabs()), kcfg)
			})
			if err != nil {
				return err
			}
			modeledCompute += res.Seconds
			stealOps += res.StealOps
			maxSRAM = max(maxSRAM, res.MaxSRAM)
		}
		exts := tileExtensions(batches, pin.Slabs())
		extendS = tr.standalone("core.extend", r.execSpan, n, func() { err = kernelExtender(cfg.Kernel).run(exts, &cc) })
		if err != nil {
			return err
		}
	}

	t, c := lt.times, lt.counts
	t.add("workload.pin_s", pinS)
	t.add("ipukernel.run_busy_s", runBusy)
	t.add("ipukernel.self_s", max(0, runBusy-extendS))
	t.add("core.extend_s", extendS)
	t.add("core.mcells_per_s", ratio(float64(cc.cells)/1e6, extendS))
	c["ipukernel.modeled_compute_s"] = modeledCompute
	c["ipukernel.steal_ops"] = float64(stealOps)
	c["ipukernel.max_sram_bytes"] = float64(maxSRAM)
	c["core.cells"] = float64(cc.cells)
	c["core.theoretical_cells"] = float64(cc.theoretical)
	c["core.search_space_share"] = ratio(float64(cc.cells), float64(cc.theoretical))
	c["core.mean_band"] = ratio(float64(cc.sumBand), float64(cc.antidiags))
	c["core.peak_trace_bytes"] = float64(cc.peakTraceBytes)
	c["core.traced_extensions"] = float64(cc.tracedExtensions)
	c["core.work_bytes_peak"] = float64(cc.workBytesPeak)
	return nil
}

// wireCodecs times what the client and the service pump do around the
// engine: encoding the dataset, and every update as an NDJSON chunk.
func (lt *layerTrace) wireCodecs(n int, r *replicaRun) error {
	var err error
	encodeS := lt.tr.standalone("wire.encode_dataset", 0, n, func() { _, err = wire.EncodeDataset(r.data) })
	if err != nil {
		return err
	}
	updates := make([][]ipukernel.AlignOut, 0, len(r.outs)+1)
	if len(r.outs) == 0 {
		updates = append(updates, r.report.Results) // the cache-served update
	}
	for _, o := range r.outs {
		updates = append(updates, o.Out)
	}
	resultsBytes := 0
	encodeResultsS := lt.tr.standalone("wire.encode_results", 0, n, func() {
		for seq, u := range updates {
			results := make([]wire.Result, len(u))
			for i, o := range u {
				results[i] = wire.FromAlignOut(o)
			}
			var line []byte
			if line, err = json.Marshal(wire.Envelope{Chunk: &wire.Chunk{Seq: seq, Batches: len(r.outs), Results: results}}); err != nil {
				return
			}
			resultsBytes += len(line) + 1
		}
	})
	if err != nil {
		return err
	}
	lt.times.add("wire.encode_dataset_s", encodeS)
	lt.times.add("wire.encode_results_s", encodeResultsS)
	lt.counts["wire.dataset_bytes"] = float64(len(lt.payload))
	lt.counts["wire.results_bytes"] = float64(resultsBytes)
	return nil
}

// realPaths times the same job whole through the engine, the service and
// the client, and reports what each adds over the layer below.
func (lt *layerTrace) realPaths(n int, r *replicaRun) error {
	tr := lt.tr

	// Engine: Submit → Results → Wait, one client.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	statsBefore := lt.eng.Stats()
	sp := tr.begin("engine.job", 0, n)
	start := time.Now()
	j, err := lt.eng.Submit(lt.ctx, lt.data)
	submitBlock := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	for range j.Results() {
	}
	engRep, err := j.Wait(lt.ctx)
	engineJob := tr.end(sp)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	statsAfter := lt.eng.Stats()
	if got, want := fingerprintOf(engRep).Results, fingerprintOf(r.report).Results; got != want {
		return fmt.Errorf("replica results %s differ from the engine's %s", want, got)
	}

	// Service: a bare POST, the stream discarded.
	sp = tr.begin("service.raw_job", 0, n)
	streamBytes, err := lt.rawJob(io.Discard)
	rawJob := tr.end(sp)
	if err != nil {
		return err
	}

	// Client: decode and assemble a recorded stream from a stub server.
	sp = tr.begin("serviceclient.replay", 0, n)
	rj, err := serviceclient.New(lt.stubURL, serviceclient.WithHTTPClient(lt.hc)).Submit(lt.ctx, lt.data)
	if err != nil {
		return err
	}
	for range rj.Results() {
	}
	_, err = rj.Wait(lt.ctx)
	replay := tr.end(sp)
	if err != nil {
		return err
	}

	t, c := lt.times, lt.counts
	t.add("engine.job_s", engineJob)
	// The engine does the replica's stages minus the wire decode.
	t.add("engine.overhead_s", engineJob-(r.wall-r.decode))
	t.add("engine.submit_block_s", submitBlock)
	t.add("engine.alloc_mb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	t.add("service.raw_job_s", rawJob)
	t.add("service.overhead_s", rawJob-engineJob)
	t.add("service.stream_mb_per_s", float64(streamBytes)/1e6/rawJob)
	t.add("serviceclient.replay_s", replay)
	t.add("serviceclient.decode_mb_per_s", float64(len(lt.stream))/1e6/replay)
	t.add("trace.replica_ratio", r.wall/(r.decode+engineJob))
	hits := float64(statsAfter.CacheHits - statsBefore.CacheHits)
	c["engine.cache_hit_rate"] = ratio(hits, hits+float64(statsAfter.CacheMisses-statsBefore.CacheMisses))
	c["service.stream_bytes"] = float64(streamBytes)
	return nil
}

// variantSweep times the kernel variants over the long-read extensions.
func (lt *layerTrace) variantSweep(n int) error {
	for _, v := range sweepVariants {
		var vc coreCounts
		var err error
		secs := lt.tr.standalone("core.sweep."+v.name, 0, n, func() { err = v.ext.run(lt.sweep, &vc) })
		if err != nil {
			return fmt.Errorf("sweep %s: %w", v.name, err)
		}
		lt.times.add("core."+v.name+".mcells_per_s", float64(vc.cells)/1e6/secs)
	}
	return nil
}

// ratio is a/b, and 0 where the workload does none of b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recording is how one extension's directions are recorded.
type recording int

const (
	scoreOnly recording = iota
	replayed            // score pass, then the recording replay
	fused               // recorded during the score pass
)

// extender runs seed extensions the way a tile thread does, on one
// goroutine with one workspace.
type extender struct {
	params core.Params
	choose func(lh, lv int) recording
}

// kernelExtender extends as ipukernel would under k (its runUnit).
func kernelExtender(k ipukernel.Config) extender {
	p := k.Params
	p.Tier = k.Tier()
	return extender{params: p, choose: func(lh, lv int) recording {
		if !k.Traceback {
			return scoreOnly
		}
		if f, _ := k.TraceCharges(lh, lv); f > 0 {
			return fused
		}
		return replayed
	}}
}

func always(r recording) func(int, int) recording { return func(int, int) recording { return r } }

// sweepVariants are the kernels a core change can move apart: the three
// score-only algorithms, the int16 tier, and the two ways of recording.
var sweepVariants = func() []struct {
	name string
	ext  extender
} {
	base := specs[0].driverConfig().Kernel.Params
	with := func(f func(*core.Params)) core.Params { p := base; f(&p); return p }
	return []struct {
		name string
		ext  extender
	}{
		{"restricted2", extender{base, always(scoreOnly)}},
		{"standard3", extender{with(func(p *core.Params) { p.Algo = core.AlgoStandard3 }), always(scoreOnly)}},
		{"affine", extender{with(func(p *core.Params) { p.Algo, p.GapOpen = core.AlgoAffine, -2 }), always(scoreOnly)}},
		{"restricted2_narrow", extender{with(func(p *core.Params) { p.Tier = core.TierNarrow }), always(scoreOnly)}},
		{"trace_replay", extender{base, always(replayed)}},
		{"trace_fused", extender{base, always(fused)}},
	}
}()

// coreCounts are the exact counts of one pass over an extension set.
type coreCounts struct {
	cells, theoretical, sumBand, antidiags          int64
	peakTraceBytes, tracedExtensions, workBytesPeak int
}

// seedExtension is one comparison as the kernel sees it: two sequences
// and the seed between them.
type seedExtension struct {
	h, v                  []byte
	seedH, seedV, seedLen int
}

// planExtensions lists the first n comparisons of d in plan order.
func planExtensions(d *workload.Dataset, n int) []seedExtension {
	arena, plan := d.Spine()
	exts := make([]seedExtension, n)
	for i := range exts {
		c := plan.At(i)
		exts[i] = seedExtension{arena.Seq(c.H), arena.Seq(c.V), c.SeedH, c.SeedV, c.SeedLen}
	}
	return exts
}

// tileExtensions lists the batches' jobs in the order the tiles hold
// them, so the core-only loop touches sequences in the kernel's order.
func tileExtensions(batches []*ipukernel.Batch, slabs [][]byte) []seedExtension {
	var exts []seedExtension
	for _, b := range batches {
		b = b.Bound(slabs)
		for ti := range b.Tiles {
			t := &b.Tiles[ti]
			for _, j := range t.Jobs {
				exts = append(exts, seedExtension{t.Seq(j.HLocal), t.Seq(j.VLocal), j.SeedH, j.SeedV, j.SeedLen})
			}
		}
	}
	return exts
}

// run extends every seed left and right.
func (e extender) run(exts []seedExtension, c *coreCounts) error {
	var ws core.Workspace
	for _, x := range exts {
		c.theoretical += int64(len(x.h)) * int64(len(x.v))
		if err := e.side(&ws, x.h, x.v, x.seedH, x.seedV, true, c); err != nil {
			return err
		}
		if err := e.side(&ws, x.h, x.v, x.seedH+x.seedLen, x.seedV+x.seedLen, false, c); err != nil {
			return err
		}
	}
	return nil
}

// side extends one side of a seed from (hOff, vOff), recording as the
// extender chooses for the side's lengths.
func (e extender) side(ws *core.Workspace, h, v []byte, hOff, vOff int, left bool, c *coreCounts) error {
	lh, lv := hOff, vOff
	if !left {
		lh, lv = len(h)-hOff, len(v)-vOff
	}
	how := e.choose(lh, lv)
	var r core.Result
	var trc core.Trace
	var err error
	switch {
	case how == fused && left:
		r, trc, err = ws.FusedExtendLeft(h, v, hOff, vOff, e.params)
	case how == fused:
		r, trc, err = ws.FusedExtendRight(h, v, hOff, vOff, e.params)
	case left:
		r = ws.ExtendLeft(h, v, hOff, vOff, e.params)
		if how == replayed {
			trc, err = ws.TracebackLeft(h, v, hOff, vOff, e.params)
		}
	default:
		r = ws.ExtendRight(h, v, hOff, vOff, e.params)
		if how == replayed {
			trc, err = ws.TracebackRight(h, v, hOff, vOff, e.params)
		}
	}
	if err != nil {
		return err
	}
	c.cells += r.Stats.Cells
	c.sumBand += r.Stats.SumComputedBand
	c.antidiags += int64(r.Stats.Antidiagonals)
	c.workBytesPeak = max(c.workBytesPeak, r.Stats.WorkBytes)
	if how != scoreOnly {
		c.tracedExtensions++
		c.peakTraceBytes = max(c.peakTraceBytes, trc.TraceBytes)
	}
	return nil
}

// runTraced is the traced run: a short closed loop with client spans,
// then repetitions of the per-layer measurements on dataset 0, reporting
// every per-layer metric and writing the spans out.
func runTraced(ctx context.Context, s spec, seed int64, size, seconds float64, outDir string) (result, error) {
	b, err := setup(ctx, s, seed, size, nil)
	if err != nil {
		return result{}, err
	}
	defer b.sys.close()
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	load := b.load(ctx, seconds/3, tr)
	if load.firstErr != nil {
		return result{}, load.firstErr
	}

	lt, err := newLayerTrace(ctx, s, seed, size, b.data[0], tr)
	if err != nil {
		return result{}, err
	}
	defer lt.close()
	reps := 0
	for ; reps < minTraceReps || time.Now().Before(deadline); reps++ {
		if err := lt.rep(reps); err != nil {
			return result{}, fmt.Errorf("trace repetition %d: %w", reps, err)
		}
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+s.name+".json")); err != nil {
		return result{}, err
	}

	values := map[string]float64{
		"client.jobs":       float64(len(load.jobs)),
		"client.job_s_p90":  metrics.Percentile(load.jobSeconds(), 90),
		"client.ttfb_s_p90": metrics.Percentile(load.ttfbSeconds(), 90),
		"client.clients":    float64(load.clients),
	}
	for name, v := range lt.counts {
		values[name] = v
	}
	for name, xs := range lt.times {
		values[name] = median(xs)
	}
	res := result{Correct: true, Attempted: len(load.jobs) + reps, Metrics: map[string]metric{}}
	for _, def := range perLayer {
		v, ok := values[def.Name]
		if !ok {
			return result{}, fmt.Errorf("traced run produced no %s", def.Name)
		}
		res.Metrics[def.Name] = metric{v, def.Unit}
	}
	return res, nil
}
