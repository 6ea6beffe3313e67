package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
)

// manifest is the part of BENCHMARK.json abpair reads.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest tolerated relative worsening
}

// plan is what to measure.
type plan struct {
	workloads []string
	seeds     []string // "" is the benchmark's default seed
	pairs     int
	seconds   float64
	metrics   []metricSpec
}

// report is abpair's result, the JSON file it writes.
type report struct {
	Base    side    `json:"base"`
	Head    side    `json:"head"`
	Pairs   int     `json:"pairs"`
	Seconds float64 `json:"seconds"`
	Host    string  `json:"host"`
	Groups  []group `json:"groups"`
	// Gains and Losses name each workload, seed and metric whose verdict
	// is "gain" or "loss"; Failures every failed check. Pass is whether
	// Failures is empty once every pair has run.
	Gains    []string `json:"gains"`
	Losses   []string `json:"losses"`
	Failures []string `json:"failures"`
	Complete bool     `json:"complete"`
	Pass     bool     `json:"pass"`
}

// group is the pairs of one workload at one seed.
type group struct {
	Workload string          `json:"workload"`
	Seed     string          `json:"seed"` // "" is the benchmark's default
	Runs     []pairRun       `json:"runs"`
	Metrics  []metricSummary `json:"metrics"`
}

// pairRun is one pair: both sides' samples, in the order they ran.
type pairRun struct {
	BaseFirst bool   `json:"base_first"`
	Base      sample `json:"base"`
	Head      sample `json:"head"`
}

// metricSummary is one metric over a group's pairs.
type metricSummary struct {
	Name       string  `json:"name"`
	Better     string  `json:"better"`
	Bound      float64 `json:"bound"`
	BaseMedian float64 `json:"base_median"`
	HeadMedian float64 `json:"head_median"`
	// Ratio is the quartiles of the paired ratios head ÷ base; RawRatio
	// the same over the host line's uncorrected readings, for the metrics
	// the yardstick corrects.
	Ratio    quartiles  `json:"ratio"`
	RawRatio *quartiles `json:"raw_ratio,omitempty"`
	// Won and Lost count the pairs the head read better and worse in.
	Won  int `json:"won"`
	Lost int `json:"lost"`
	N    int `json:"n"`
	// BaseIQR is the base runs' interquartile range over their median.
	BaseIQR float64 `json:"base_iqr"`
	// Verdict is "gain", "loss" or "flat" — or, for a modeled_* metric,
	// "equal" or "differs" — and "exceeds bound" when the median ratio is
	// worse than the bound.
	Verdict string `json:"verdict"`
}

// quartiles are the first quartile, median and third quartile of values.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// quantile returns the q-quantile of sorted values, interpolating linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartilesOf returns the quartiles of values, which it leaves unsorted.
func quartilesOf(values []float64) quartiles {
	s := slices.Clone(values)
	slices.Sort(s)
	return quartiles{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// schedule returns, for n pairs, whether the base runs first in each: in
// ABBA order when baseFirst, BAAB otherwise.
func schedule(n int, baseFirst bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = (i%2 == 0) == baseFirst
	}
	return s
}

// ratios returns head ÷ base pair by pair.
func ratios(base, head []float64) []float64 {
	r := make([]float64, len(base))
	for i := range base {
		r[i] = head[i] / base[i]
	}
	return r
}

// summarize judges one metric over paired readings, base[i] and head[i]
// from pair i; raw holds the pairs' uncorrected readings, nil when the
// metric has none.
func summarize(m metricSpec, base, head []float64, raw [][2]float64) metricSummary {
	s := metricSummary{Name: m.Name, Better: m.Better, Bound: m.Bound, N: len(base)}
	bq := quartilesOf(base)
	s.BaseMedian, s.HeadMedian = bq.Median, quartilesOf(head).Median
	if strings.HasPrefix(m.Name, "modeled_") {
		s.Verdict = "equal"
		if !slices.Equal(base, head) {
			s.Verdict = "differs"
		}
	}
	if slices.Contains(base, 0) || slices.Contains(head, 0) {
		if s.Verdict == "" {
			s.Verdict = "unmeasured" // a metric that reads 0 compares nothing
		}
		return s
	}
	s.Ratio = quartilesOf(ratios(base, head))
	if raw != nil {
		rb, rh := make([]float64, len(raw)), make([]float64, len(raw))
		for i, p := range raw {
			rb[i], rh[i] = p[0], p[1]
		}
		if !slices.Contains(rb, 0) && !slices.Contains(rh, 0) {
			rr := quartilesOf(ratios(rb, rh))
			s.RawRatio = &rr
		}
	}
	lower := m.Better == "lower"
	for i := range base {
		switch {
		case (head[i] < base[i]) == lower && head[i] != base[i]:
			s.Won++
		case head[i] != base[i]:
			s.Lost++
		}
	}
	s.BaseIQR = (bq.Q3 - bq.Q1) / bq.Median
	gain := s.Ratio.Median - 1 // how much better the head reads, relatively
	if lower {
		gain = -gain
	}
	// A gain is named only where a change claiming it is accepted, at
	// 9 of 10 pairs; a loss is named at ¾ of them, so it shows sooner.
	gainAgree := (9*s.N + 9) / 10 // ⌈9N/10⌉
	lossAgree := (3*s.N + 3) / 4  // ⌈¾ N⌉
	switch {
	case s.Verdict != "":
	case -gain > m.Bound:
		s.Verdict = "exceeds bound"
	case gain > s.BaseIQR && s.Won >= gainAgree:
		s.Verdict = "gain"
	case -gain > s.BaseIQR && s.Lost >= lossAgree:
		s.Verdict = "loss"
	default:
		s.Verdict = "flat"
	}
	return s
}

// rawNames are the metrics the yardstick corrects, named as on the host
// line.
var rawNames = []string{"cmps_per_s", "job_s_p50", "ttfb_s_p50", "setup_s"}

// label names the group in the report's lists.
func (g *group) label() string {
	if g.Seed == "" {
		return g.Workload
	}
	return g.Workload + " seed " + g.Seed
}

// summarizeGroup judges every metric of a group's pairs and returns the
// checks it failed.
func summarizeGroup(g *group, metrics []metricSpec) (failures []string) {
	label := g.label()
	var failedBase, failedHead, attBase, attHead int
	for i, r := range g.Runs {
		if !r.Base.Correct || !r.Head.Correct {
			failures = append(failures, fmt.Sprintf("%s: pair %d: correct base %v, head %v", label, i, r.Base.Correct, r.Head.Correct))
		}
		failedBase += r.Base.Failed
		failedHead += r.Head.Failed
		attBase += r.Base.Attempted
		attHead += r.Head.Attempted
	}
	if failedHead*max(attBase, 1) > failedBase*max(attHead, 1) {
		failures = append(failures, fmt.Sprintf("%s: the head failed %d of %d jobs, the base %d of %d", label, failedHead, attHead, failedBase, attBase))
	}
	g.Metrics = g.Metrics[:0]
	for _, m := range metrics {
		var base, head []float64
		var raw [][2]float64
		hasRaw := slices.Contains(rawNames, m.Name)
		for _, r := range g.Runs {
			base = append(base, r.Base.Metrics[m.Name])
			head = append(head, r.Head.Metrics[m.Name])
			if hasRaw {
				raw = append(raw, [2]float64{r.Base.Raw[m.Name], r.Head.Raw[m.Name]})
			}
		}
		s := summarize(m, base, head, raw)
		g.Metrics = append(g.Metrics, s)
		switch s.Verdict {
		case "differs", "exceeds bound", "unmeasured":
			failures = append(failures, fmt.Sprintf("%s: %s %s (median ratio %.4f, bound %g)", label, m.Name, s.Verdict, s.Ratio.Median, m.Bound))
		}
	}
	return failures
}

// measure runs the plan's pairs, group by group, alternating the first
// side from group to group, writes a line to progress before every run
// and calls save with the report so far after every pair.
func measure(ctx context.Context, p plan, base, head side, run runFunc, save func(*report) error, progress io.Writer) (*report, error) {
	r := &report{Base: base, Head: head, Pairs: p.pairs, Seconds: p.seconds,
		Host: fmt.Sprintf("%s/%s, %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())}
	for _, w := range p.workloads {
		for _, seed := range p.seeds {
			r.Groups = append(r.Groups, group{Workload: w, Seed: seed})
		}
	}
	for gi := range r.Groups {
		g := &r.Groups[gi]
		for i, baseFirst := range schedule(p.pairs, gi%2 == 0) {
			pr := pairRun{BaseFirst: baseFirst}
			runs := []struct {
				side *side
				out  *sample
			}{{&base, &pr.Base}, {&head, &pr.Head}}
			if !baseFirst {
				slices.Reverse(runs)
			}
			for _, x := range runs {
				fmt.Fprintf(progress, "abpair: %s seed %q pair %d/%d: %s\n", g.Workload, g.Seed, i+1, p.pairs, x.side.Rev)
				smp, err := run(ctx, x.side.dir, g.Workload, g.Seed, p.seconds)
				if err != nil {
					return nil, err
				}
				*x.out = smp
			}
			g.Runs = append(g.Runs, pr)
			r.tally(p.metrics, gi == len(r.Groups)-1 && i == p.pairs-1)
			if err := save(r); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// tally recomputes every group's summaries and the report's verdict from
// the pairs run so far.
func (r *report) tally(metrics []metricSpec, complete bool) {
	r.Gains, r.Losses, r.Failures = nil, nil, nil
	for gi := range r.Groups {
		g := &r.Groups[gi]
		if len(g.Runs) == 0 {
			continue
		}
		r.Failures = append(r.Failures, summarizeGroup(g, metrics)...)
		for _, s := range g.Metrics {
			name := g.label() + " " + s.Name
			switch s.Verdict {
			case "gain":
				r.Gains = append(r.Gains, name)
			case "loss":
				r.Losses = append(r.Losses, name)
			}
		}
	}
	r.Complete = complete
	r.Pass = complete && len(r.Failures) == 0
}

// printReport writes the report's summaries as a table.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "base %s %s, head %s %s; %d pairs of %g s on %s\n", r.Base.Rev, r.Base.Commit, r.Head.Rev, r.Head.Commit, r.Pairs, r.Seconds, r.Host)
	for _, g := range r.Groups {
		fmt.Fprintf(w, "\n%s seed %q\n", g.Workload, g.Seed)
		fmt.Fprintf(w, "  %-24s %12s %12s %8s %17s %6s %8s  %s\n", "metric", "base p50", "head p50", "ratio", "[q1 q3]", "won", "base IQR", "verdict")
		for _, s := range g.Metrics {
			fmt.Fprintf(w, "  %-24s %12.5g %12.5g %8.4f  [%.4f %.4f] %2d/%-3d %7.2f%%  %s\n",
				s.Name, s.BaseMedian, s.HeadMedian, s.Ratio.Median, s.Ratio.Q1, s.Ratio.Q3, s.Won, s.N, 100*s.BaseIQR, s.Verdict)
		}
	}
	fmt.Fprintf(w, "\ngains: %s\nlosses: %s\n", strings.Join(r.Gains, ", "), strings.Join(r.Losses, ", "))
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	if r.Pass {
		fmt.Fprintln(w, "PASS")
	}
}
