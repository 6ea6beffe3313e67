package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// host records where a report was measured; numbers from different hosts
// do not compare.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostBlock() host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// workloadReport is one workload's numbers: every untraced run's value
// per end-to-end metric, and the traced run's per-layer metrics.
type workloadReport struct {
	Clients   int                  `json:"clients"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
}

func (w workloadReport) failedShare() float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}

// report is the all-workload output -compare reads.
type report struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Size      float64                   `json:"size"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// child runs one workload in a process of its own, so peak RSS, heap and
// caches do not leak between workloads, and parses its result line.
func child(name string, seed int64, size, seconds float64, traced bool, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-size", strconv.FormatFloat(size, 'g', -1, 64), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload (runs untraced runs and, when traced, one
// traced run each), prints every metric by name and unit, and writes the
// report to <outDir>/report.json.
func runAll(w io.Writer, seed int64, size, seconds float64, runs int, traced bool, outDir string) (*report, error) {
	rep := &report{Host: hostBlock(), Seed: seed, Size: size, Seconds: seconds, Workloads: map[string]workloadReport{}}
	for _, s := range specs {
		wr := workloadReport{Clients: s.clients(), EndToEnd: map[string][]float64{}}
		for r := 0; r < runs; r++ {
			res, err := child(s.name, seed, size, seconds, false, outDir)
			if err != nil {
				return nil, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
			}
		}
		if traced {
			res, err := child(s.name, seed, size, seconds, true, outDir)
			if err != nil {
				return nil, err
			}
			wr.PerLayer = map[string]float64{}
			for name, m := range res.Metrics {
				wr.PerLayer[name] = m.Value
			}
		}
		rep.Workloads[s.name] = wr
	}
	rep.print(w)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "report.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "report written to", path)
	return rep, nil
}

// print renders one column per workload, one row per metric.
func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "seed %d, size %g, %g s per run, closed loop\n\n", r.Seed, r.Size, r.Seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, s := range specs {
		fmt.Fprintf(tw, "\t%s", s.name)
	}
	fmt.Fprintln(tw)
	row := func(name, unit string, value func(workloadReport) (float64, bool)) {
		fmt.Fprintf(tw, "%s\t%s", name, unit)
		for _, s := range specs {
			if v, ok := value(r.Workloads[s.name]); ok {
				fmt.Fprintf(tw, "\t%.6g", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	row("clients", "count", func(w workloadReport) (float64, bool) { return float64(w.Clients), true })
	row("jobs", "count", func(w workloadReport) (float64, bool) { return float64(w.Attempted), true })
	row("failed_share", "ratio", func(w workloadReport) (float64, bool) { return w.failedShare(), true })
	for _, def := range endToEnd {
		row(def.Name, def.Unit, func(w workloadReport) (float64, bool) {
			return median(w.EndToEnd[def.Name]), len(w.EndToEnd[def.Name]) > 0
		})
	}
	for _, def := range perLayer {
		row(def.Name, def.Unit, func(w workloadReport) (float64, bool) {
			v, ok := w.PerLayer[def.Name]
			return v, ok
		})
	}
	tw.Flush()
}

// quartiles follows Python's statistics.quantiles(xs, n=4), which the
// benchmark driver uses for its spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, or 0
// when there are too few runs to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, median(xs)))
}

// verdict classifies cur against base for one metric.
func verdict(def metricDef, base, cur []float64) string {
	b, c := median(base), median(cur)
	worse := ratio(c-b, b) // share of base by which cur is worse
	if def.Better == "higher" {
		worse = -worse
	}
	noisy := max(spread(base), spread(cur)) > *def.Bound
	switch {
	case worse > *def.Bound && noisy:
		return "unresolved"
	case worse > *def.Bound:
		return "regressed"
	case worse < -*def.Bound && (!noisy || allBetter(def, base, cur)):
		return "improved"
	case noisy:
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every run of cur reads better than every run
// of base: the one case a spread wider than the bound still resolves.
func allBetter(def metricDef, base, cur []float64) bool {
	if def.Better == "higher" {
		return slices.Min(cur) > slices.Max(base)
	}
	return slices.Max(cur) < slices.Min(base)
}

var errRegressed = errors.New("at least one end-to-end metric regressed beyond its bound")

// compareReports prints one row per workload × end-to-end metric and
// returns errRegressed if any regressed.
func compareReports(w io.Writer, old, cur *report) error {
	if old.Host.CPU != cur.Host.CPU || old.Host.NumCPU != cur.Host.NumCPU {
		fmt.Fprintf(w, "warning: reports come from different hosts (%s ×%d vs %s ×%d); host times do not compare\n",
			old.Host.CPU, old.Host.NumCPU, cur.Host.CPU, cur.Host.NumCPU)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	regressed := false
	for _, s := range specs {
		o, c := old.Workloads[s.name], cur.Workloads[s.name]
		for _, def := range endToEnd {
			base, now := o.EndToEnd[def.Name], c.EndToEnd[def.Name]
			if len(base) == 0 || len(now) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\tmissing\n", s.name, def.Name)
				continue
			}
			v := verdict(def, base, now)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f%%\t%.0f%%\t%s\n", s.name, def.Name,
				median(base), median(now), ratio(median(now), median(base)),
				100*max(spread(base), spread(now)), 100**def.Bound, v)
		}
		v := "unchanged"
		if c.failedShare() > o.failedShare() {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\t-\t-\t0\t%s\n", s.name, o.failedShare(), c.failedShare(), v)
	}
	tw.Flush()
	if regressed {
		return errRegressed
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	return compareReports(w, old, cur)
}

// selfCheck runs every workload twice on the same code and fails if any
// end-to-end metric differs between the passes by more than its bound,
// or a deterministic one differs at all.
func selfCheck(w io.Writer, seed int64, size, seconds float64, outDir string) error {
	var passes [2]*report
	for i := range passes {
		var err error
		if passes[i], err = runAll(io.Discard, seed, size, seconds, 1, false, outDir); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiffers by\tbound\tverdict")
	failed := false
	for _, s := range specs {
		a, b := passes[0].Workloads[s.name], passes[1].Workloads[s.name]
		for _, def := range endToEnd {
			x, y := median(a.EndToEnd[def.Name]), median(b.EndToEnd[def.Name])
			diff := math.Abs(ratio(y-x, x))
			v := "ok"
			if diff > *def.Bound || (def.deterministic && x != y) {
				v, failed = "FAIL", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n", s.name, def.Name, x, y, 100*diff, 100**def.Bound, v)
		}
		if a.Failed+b.Failed > 0 {
			failed = true
			fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\t-\t0\tFAIL\n", s.name, a.failedShare(), b.failedShare())
		}
	}
	tw.Flush()
	if failed {
		return errors.New("selfcheck: two runs of the same code disagree beyond the bounds")
	}
	return nil
}
