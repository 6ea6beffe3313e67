package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// job is the submit/stream/join surface engine.Job and
// serviceclient.RemoteJob share, so one client loop drives both paths.
type job interface {
	Results() <-chan engine.Update
	Wait(context.Context) (*driver.Report, error)
}

// system is the program under test behind one workload's path.
type system struct {
	submit func(context.Context, *workload.Dataset) (job, error)
	close  func()
}

// startService serves the workload's service on loopback TCP and returns
// its URL, an HTTP client with connections of its own, and the teardown.
func startService(s spec) (url string, hc *http.Client, stop func()) {
	svc := service.New(service.Config{
		Shards:        1,
		EngineOptions: s.engineOptions(),
		// Under the 2 min default every settled job's encoded window stays
		// reachable and the heap grows without bound for the whole run.
		JobTTL: 2 * time.Second,
	})
	ts := httptest.NewServer(svc.Handler())
	tr := &http.Transport{}
	return ts.URL, &http.Client{Transport: tr}, func() {
		tr.CloseIdleConnections()
		ts.Close()
		svc.Close()
	}
}

// startSystem starts the engine, or the service with its client,
// configured for the workload.
func startSystem(s spec) *system {
	if !s.remote {
		eng := engine.New(s.engineOptions()...)
		return &system{
			submit: func(ctx context.Context, d *workload.Dataset) (job, error) { return eng.Submit(ctx, d) },
			close:  func() { eng.Close() },
		}
	}
	url, hc, stop := startService(s)
	cl := serviceclient.New(url, serviceclient.WithHTTPClient(hc))
	return &system{
		submit: func(ctx context.Context, d *workload.Dataset) (job, error) { return cl.Submit(ctx, d) },
		close:  stop,
	}
}

// outcome is one closed-loop job as its client saw it.
type outcome struct {
	jobSeconds  float64 // submit → report
	ttfbSeconds float64 // submit → first streamed batch
	rep         *driver.Report
}

// runJob submits one dataset, drains the stream and joins the report.
func runJob(ctx context.Context, sys *system, d *workload.Dataset) (outcome, error) {
	start := time.Now()
	j, err := sys.submit(ctx, d)
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	for range j.Results() {
		if o.ttfbSeconds == 0 {
			o.ttfbSeconds = time.Since(start).Seconds()
		}
	}
	o.rep, err = j.Wait(ctx)
	o.jobSeconds = time.Since(start).Seconds()
	if o.ttfbSeconds == 0 {
		o.ttfbSeconds = o.jobSeconds
	}
	return o, err
}

// bench is one workload set up and warmed: inputs, the answers every job
// must reproduce, and the running system.
type bench struct {
	spec spec
	data []*workload.Dataset
	want []fingerprint
	// executed holds, per dataset, the report of the job that ran it
	// through the workload's own path with a cold cache. Modeled metrics
	// come from these: they are deterministic, and on the warm workload
	// they are the only jobs that model any device work.
	executed []*driver.Report
	sys      *system
}

// setup generates the datasets, computes the reference answers with
// driver.Run, starts the system and warms it with one job per dataset
// (two on the warm workload, so measured jobs find the cache full). It
// samples the host's speed into hs between the steps.
func setup(ctx context.Context, s spec, seed int64, size float64, hs *hostSpeed) (*bench, error) {
	hs.sample()
	b := &bench{spec: s, data: s.datasets(seed, size)}
	hs.sample()
	for i, d := range b.data {
		if len(d.Comparisons) == 0 {
			return nil, fmt.Errorf("%s dataset %d has no comparisons", s.name, i)
		}
		ref, err := driver.Run(d, s.driverConfig())
		if err != nil {
			return nil, fmt.Errorf("%s reference run %d: %w", s.name, i, err)
		}
		b.want = append(b.want, fingerprintOf(ref))
		hs.sample()
	}
	if err := checkGolden(s.name, seed, size, b.want); err != nil {
		return nil, err
	}
	b.sys = startSystem(s)
	passes := 1
	if s.warm {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for i, d := range b.data {
			o, err := runJob(ctx, b.sys, d)
			if err == nil {
				err = b.check(i, o.rep, pass > 0)
			}
			if err != nil {
				b.sys.close()
				return nil, fmt.Errorf("%s warm-up job on dataset %d: %w", s.name, i, err)
			}
			if pass == 0 {
				b.executed = append(b.executed, o.rep)
			}
			hs.sample()
		}
	}
	return b, nil
}

// check holds a job's report to dataset i's reference fingerprint. A
// cache-served job is checked on results only, and must have missed
// nothing — otherwise the warm workload silently measures kernel work.
func (b *bench) check(i int, rep *driver.Report, cacheServed bool) error {
	got := fingerprintOf(rep)
	if got.Results != b.want[i].Results {
		return fmt.Errorf("results fingerprint %s, reference %s", got.Results, b.want[i].Results)
	}
	if cacheServed {
		if rep.CacheMisses != 0 {
			return fmt.Errorf("warm job missed the cache %d times", rep.CacheMisses)
		}
		return nil
	}
	if got.Modeled != b.want[i].Modeled {
		return fmt.Errorf("modeled fingerprint %s, reference %s", got.Modeled, b.want[i].Modeled)
	}
	return nil
}

// loadResult is what the closed loop measured.
type loadResult struct {
	clients     int
	wall        float64   // the segments' wall time, without the host-speed samples
	host        hostSpeed // sampled between the segments
	jobs        []outcome // completed, correct jobs
	failed      int
	firstErr    error
	comparisons int64
	allocBytes  uint64
}

// load runs the closed loop: each client submits its next job only when
// the previous report has arrived, cycling the datasets round-robin,
// until the duration is up. The loop runs in segments: between two the
// clients drain and the host's speed is sampled. Jobs in flight at a
// segment's deadline complete and count, and their overrun comes off the
// segments that remain. tr, when non-nil, records the client-side spans.
func (b *bench) load(ctx context.Context, seconds float64, tr *tracer) loadResult {
	res := loadResult{clients: b.spec.clients()}
	var next atomic.Int64
	var mu sync.Mutex
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res.host.sample()
	for res.wall < seconds {
		start := time.Now()
		deadline := start.Add(time.Duration(min(segmentSeconds, seconds-res.wall) * float64(time.Second)))
		var wg sync.WaitGroup
		for c := 0; c < res.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					n := int(next.Add(1) - 1)
					i := n % len(b.data)
					sp := tr.begin("client.job", 0, n)
					o, err := runJob(ctx, b.sys, b.data[i])
					tr.end(sp)
					if err == nil {
						err = b.check(i, o.rep, b.spec.warm)
					}
					mu.Lock()
					if err != nil {
						res.failed++
						if res.firstErr == nil {
							res.firstErr = fmt.Errorf("job %d (dataset %d): %w", n, i, err)
						}
					} else {
						res.comparisons += int64(len(o.rep.Results))
						o.rep = nil // keep the sample, drop the 4k-result report
						res.jobs = append(res.jobs, o)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		res.wall += time.Since(start).Seconds()
		res.host.sample()
	}
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	return res
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

func (r loadResult) column(f func(outcome) float64) []float64 {
	xs := make([]float64, len(r.jobs))
	for i, o := range r.jobs {
		xs[i] = f(o)
	}
	return xs
}

func (r loadResult) jobSeconds() []float64 {
	return r.column(func(o outcome) float64 { return o.jobSeconds })
}

func (r loadResult) ttfbSeconds() []float64 {
	return r.column(func(o outcome) float64 { return o.ttfbSeconds })
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// setupRepeats set-ups are timed per run and the median reported, so one
// slow dataset generation or GC pause does not read as a set-up
// regression. The last one is kept and measured.
const setupRepeats = 3

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEndToEnd is the untraced run: set up (several times), then the
// closed loop, reporting every end-to-end metric. The wall-clock metrics
// are reported in quiet-host seconds (hostspeed.go); the raw readings and
// the host's slowdown go to standard error.
func runEndToEnd(ctx context.Context, s spec, seed int64, size, seconds float64) (result, error) {
	var b *bench
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.sys.close()
		}
		var host hostSpeed
		start := time.Now()
		var err error
		if b, err = setup(ctx, s, seed, size, &host); err != nil {
			return result{}, err
		}
		raw := (time.Since(start) - host.spent).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/host.factor())
	}
	defer b.sys.close()
	r := b.load(ctx, seconds, nil)
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", r.firstErr)
	}
	if len(r.jobs) == 0 {
		return result{}, errors.Join(errors.New("no job completed"), r.firstErr)
	}
	var cells int64
	var modeledWall float64
	var peakSRAM float64
	for _, rep := range b.executed {
		cells += rep.Cells
		modeledWall += rep.WallSeconds
		peakSRAM += float64(rep.MaxSRAM) / float64(len(b.executed))
	}
	attempted := len(r.jobs) + r.failed
	host := r.host.factor()
	fmt.Fprintf(os.Stderr, "host: yardstick slowdown %.3f over %d samples, times divided by %.3f; raw cmps_per_s %.6g job_s_p50 %.6g ttfb_s_p50 %.6g setup_s %.6g\n",
		r.host.slowdown(), len(r.host.slow), host,
		float64(r.comparisons)/r.wall, median(r.jobSeconds()), median(r.ttfbSeconds()), median(rawSetups))
	return result{
		Correct:   r.failed == 0,
		Attempted: attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"cmps_per_s":              {float64(r.comparisons) / r.wall * host, "1/s"},
			"job_s_p50":               {median(r.jobSeconds()) / host, "s"},
			"ttfb_s_p50":              {median(r.ttfbSeconds()) / host, "s"},
			"alloc_mb_per_job":        {float64(r.allocBytes) / 1e6 / float64(attempted), "MB"},
			"peak_rss_mb":             {peakRSSMB(), "MB"},
			"modeled_gcups":           {float64(cells) / modeledWall / 1e9, "GCUPS"},
			"modeled_sram_peak_bytes": {peakSRAM, "B"},
			"setup_s":                 {median(setups), "s"},
		},
	}, nil
}
