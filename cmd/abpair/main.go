// Command abpair measures a change against its parent with the
// repository benchmark, in alternating pairs of runs.
//
// Usage:
//
//	abpair -base <rev> [-head <rev>] [-pairs 6] [-workloads a,b] [-seeds 7,11] [-out abpair.json]
//
// Each revision is checked out with `git worktree add` under a temporary
// directory (-work) and runs its own benchmark/run.sh, which builds the
// benchmark from that checkout's source into the checkout's .bench_build.
// Before a new checkout builds, its Go build cache is seeded with a copy
// of the invoking checkout's (or, if that has none, of the first built
// checkout's), so the standard library is compiled once, not per side.
// Without -head the head side is the repository's working tree as it
// stands. For every workload and seed abpair runs N pairs, alternating
// which side goes first — ABBA, and BAAB for the next workload or seed —
// so a drift of the host or an order effect falls on both sides alike.
// Every run measures for BENCHMARK.json's run_seconds. From each run it
// reads the result object (the last line of standard output) and the
// benchmark's `host:` line on standard error, which carries the
// wall-clock readings before the yardstick's correction.
//
// Per workload and end-to-end metric it reports the median of the paired
// ratios head ÷ base with their quartiles (the same for the raw readings),
// how many pairs the head won, and the base's interquartile range relative
// to its median. A gain is named only when the median ratio lies outside
// the base's IQR and at least nine pairs in ten agree, a loss when three
// in four do. The
// comparison fails when a metric's median ratio is worse than its
// BENCHMARK.json bound, when a modeled_* metric differs in any pair, or
// when a run is incorrect or the head failed a larger share of jobs.
// -base HEAD -head HEAD is the A/A check. The result is one JSON file,
// rewritten after every pair; the exit status is 1 when the comparison
// fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// options are abpair's flags.
type options struct {
	repo, base, head, work, out string
	workloads, seeds            string
	pairs                       int
}

func main() {
	var o options
	flag.StringVar(&o.base, "base", "", "base revision (required)")
	flag.StringVar(&o.head, "head", "", "head revision (default: the working tree as it stands)")
	flag.IntVar(&o.pairs, "pairs", 6, "pairs of runs per workload and seed")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	flag.StringVar(&o.seeds, "seeds", "", "comma-separated seeds (default: the benchmark's own)")
	flag.StringVar(&o.out, "out", "abpair.json", "JSON result file")
	flag.StringVar(&o.repo, "repo", ".", "the repository whose BENCHMARK.json and revisions are used")
	flag.StringVar(&o.work, "work", "", "directory for the checkouts (default: the system's temporary directory)")
	flag.Parse()
	if o.base == "" || o.pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if !rep.Pass {
		os.Exit(1)
	}
}

// run checks both sides out, builds them, measures and writes the report.
func run(ctx context.Context, o options) (*report, error) {
	root, err := git(ctx, o.repo, "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	m, err := readManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	p, err := newPlan(m, o)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.work, "abpair-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	base, err := checkout(ctx, root, o.base, filepath.Join(tmp, "base"))
	if err != nil {
		return nil, err
	}
	defer removeCheckout(root, base)
	head := side{Rev: "working tree", dir: root}
	if o.head != "" {
		if head, err = checkout(ctx, root, o.head, filepath.Join(tmp, "head")); err != nil {
			return nil, err
		}
		defer removeCheckout(root, head)
	}
	if err := buildSides(ctx, root, []side{base, head}, build); err != nil {
		return nil, err
	}
	save := func(r *report) error { return writeReport(o.out, r) }
	return measure(ctx, p, base, head, benchRun, save, os.Stderr)
}

// readManifest reads the workloads, run length and end-to-end metrics of
// a BENCHMARK.json.
func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		return m, fmt.Errorf("%s names no workload or no end-to-end metric", path)
	}
	return m, nil
}

// newPlan resolves the flags against the manifest.
func newPlan(m manifest, o options) (plan, error) {
	p := plan{pairs: o.pairs, seconds: m.RunSeconds, metrics: m.EndToEnd, seeds: []string{""}}
	known := map[string]bool{}
	for _, w := range m.Workloads {
		known[w.Name] = true
		p.workloads = append(p.workloads, w.Name)
	}
	if o.workloads != "" {
		p.workloads = strings.Split(o.workloads, ",")
		for _, w := range p.workloads {
			if !known[w] {
				return p, fmt.Errorf("workload %q is not in BENCHMARK.json", w)
			}
		}
	}
	if o.seeds != "" {
		p.seeds = strings.Split(o.seeds, ",")
		for _, s := range p.seeds {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				return p, fmt.Errorf("seed %q: %w", s, err)
			}
		}
	}
	return p, nil
}

// writeReport writes r as indented JSON, replacing path whole.
func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
