package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestQuartilesOnFixedInputs(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want quartiles
	}{
		{[]float64{7}, quartiles{7, 7, 7}},
		{[]float64{5, 1, 4, 2, 3}, quartiles{2, 3, 4}},
		{[]float64{4, 3, 2, 1}, quartiles{1.75, 2.5, 3.25}},
		{[]float64{1, 1, 1, 10}, quartiles{1, 1, 3.25}},
	} {
		in := slices.Clone(c.in)
		if got := quartilesOf(in); got != c.want {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", c.in, got, c.want)
		}
		if !slices.Equal(in, c.in) {
			t.Errorf("quartilesOf sorted its input: %v", in)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "ttfb_s_p50", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "cmps_per_s", Better: "higher", Bound: 0.25}
	base := []float64{10, 11, 9, 10, 10.5, 9.5, 10, 10}
	base10 := append(slices.Clone(base), 10.2, 9.8)
	// mixed scales the first eight of base10 by f and the last two by g.
	mixed := func(f, g float64) []float64 {
		h := make([]float64, len(base10))
		for i, b := range base10 {
			h[i] = b * f
			if i >= 8 {
				h[i] = b * g
			}
		}
		return h
	}
	scaled := func(f float64) []float64 {
		h := make([]float64, len(base))
		for i, b := range base {
			h[i] = b * f
		}
		return h
	}
	for _, c := range []struct {
		name      string
		m         metricSpec
		base      []float64
		head      []float64
		verdict   string
		won, lost int
	}{
		{"lower is a gain", lower, base, scaled(0.75), "gain", 8, 0},
		{"higher is a gain", higher, base, scaled(1.25), "gain", 8, 0},
		{"a loss inside the bound", lower, base, scaled(1.2), "loss", 0, 8},
		{"beyond the bound", higher, base, scaled(0.7), "exceeds bound", 0, 8},
		{"inside the base's IQR", lower, base, scaled(0.99), "flat", 8, 0},
		// The median ratio is 0.75, but only 5 of 8 pairs agree.
		{"too few pairs agree", lower, base, []float64{7.5, 8.25, 6.75, 7.5, 7.875, 11, 12, 11}, "flat", 5, 3},
		// A gain needs ⌈9N/10⌉ pairs, 9 of 10: 8 read flat. A loss needs
		// ⌈¾ N⌉, so 8 of 10 is one.
		{"a gain in 8 of 10 pairs", lower, base10, mixed(0.75, 1.1), "flat", 8, 2},
		{"a loss in 8 of 10 pairs", lower, base10, mixed(1.2, 0.9), "loss", 2, 8},
		{"modeled bit-equal", metricSpec{Name: "modeled_gcups", Better: "higher", Bound: 0.12}, base, scaled(1), "equal", 0, 0},
		{"modeled differs", metricSpec{Name: "modeled_gcups", Better: "higher", Bound: 0.12}, base, scaled(1.0000001), "differs", 8, 0},
		{"a zero reading", lower, base, append(scaled(1)[:7], 0), "unmeasured", 0, 0},
	} {
		s := summarize(c.m, c.base, c.head, nil)
		if s.Verdict != c.verdict || s.Won != c.won || s.Lost != c.lost {
			t.Errorf("%s: verdict %q, won %d, lost %d; want %q, %d, %d (%+v)", c.name, s.Verdict, s.Won, s.Lost, c.verdict, c.won, c.lost, s)
		}
	}

	s := summarize(lower, []float64{4, 3, 2, 1}, []float64{2, 3, 4, 1}, [][2]float64{{2, 1}, {2, 2}, {2, 3}, {2, 4}})
	if s.BaseIQR != 1.5/2.5 || s.Ratio != (quartiles{0.875, 1, 1.25}) || s.BaseMedian != 2.5 || s.HeadMedian != 2.5 {
		t.Errorf("summary %+v: want base IQR 0.6, ratio quartiles 0.875/1/1.25, medians 2.5", s)
	}
	if s.RawRatio == nil || *s.RawRatio != (quartiles{0.875, 1.25, 1.625}) {
		t.Errorf("raw ratio %+v, want quartiles 0.875/1.25/1.625", s.RawRatio)
	}
}

func TestScheduleAlternates(t *testing.T) {
	if got, want := schedule(4, true), []bool{true, false, true, false}; !slices.Equal(got, want) {
		t.Errorf("ABBA schedule %v, want %v", got, want)
	}
	if got, want := schedule(3, false), []bool{false, true, false}; !slices.Equal(got, want) {
		t.Errorf("BAAB schedule %v, want %v", got, want)
	}
}

func TestParseRun(t *testing.T) {
	stdout := `cmps_per_s                                      6.8e+04 1/s
{"correct":true,"attempted":90,"failed":0,"metrics":{"cmps_per_s":{"value":68000,"unit":"1/s"},"ttfb_s_p50":{"value":0.0045,"unit":"s"}}}
`
	stderr := `benchmark: building
host: yardstick slowdown 1.058 over 21 samples, times divided by 1.037; raw cmps_per_s 65573.8 job_s_p50 0.14 ttfb_s_p50 0.0046665 setup_s 1.2
`
	s, err := parseRun([]byte(stdout), []byte(stderr))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Attempted != 90 || s.Metrics["cmps_per_s"] != 68000 || s.Metrics["ttfb_s_p50"] != 0.0045 {
		t.Errorf("result %+v", s)
	}
	if s.Factor != 1.037 || s.Raw["ttfb_s_p50"] != 0.0046665 || s.Raw["setup_s"] != 1.2 || len(s.Raw) != 4 {
		t.Errorf("host line read as factor %v, raw %v", s.Factor, s.Raw)
	}
	for _, bad := range [][2]string{
		{"no result\n", stderr},
		{stdout, "no host line\n"},
		{stdout, "host: yardstick slowdown 1 over 2 samples, times divided by x; raw a 1\n"},
	} {
		if _, err := parseRun([]byte(bad[0]), []byte(bad[1])); err == nil {
			t.Errorf("parseRun(%q, %q) read a run", bad[0], bad[1])
		}
	}
}

// TestMeasureWithFakeRunner: measure runs each group's pairs in ABBA, then
// BAAB order, saves after every pair and judges the pairs: a head 25 %
// faster on ttfb_s_p50 is a gain, the modeled metrics bit-equal, and a
// head whose modeled metric moves fails.
func TestMeasureWithFakeRunner(t *testing.T) {
	metrics := []metricSpec{
		{Name: "ttfb_s_p50", Better: "lower", Bound: 0.25},
		{Name: "job_s_p50", Better: "lower", Bound: 0.25},
		{Name: "modeled_gcups", Better: "higher", Bound: 0.12},
	}
	p := plan{workloads: []string{"w1", "w2"}, seeds: []string{""}, pairs: 4, seconds: 1, metrics: metrics}
	base, head := side{Rev: "parent", dir: "/base"}, side{Rev: "change", dir: "/head"}

	run := func(modeledHead float64) (*report, []string, int, error) {
		var calls []string
		saves := 0
		fake := func(_ context.Context, dir, workload, seed string, seconds float64) (sample, error) {
			calls = append(calls, workload+":"+strings.TrimPrefix(dir, "/"))
			n := float64(len(calls))
			pair := (len(calls) - 1) / 2
			ttfb, modeled := 0.004+0.0001*float64(pair%3), 7.5
			if dir == head.dir {
				ttfb *= 0.75
				modeled = modeledHead
			}
			job := 0.1 + 0.001*n // drifts up run by run, on both sides alike
			return sample{
				Correct: true, Attempted: 50,
				Metrics: map[string]float64{"ttfb_s_p50": ttfb, "job_s_p50": job, "modeled_gcups": modeled},
				Raw:     map[string]float64{"ttfb_s_p50": ttfb * 1.1, "job_s_p50": job * 1.1},
			}, nil
		}
		r, err := measure(context.Background(), p, base, head, fake, func(*report) error { saves++; return nil }, io.Discard)
		return r, calls, saves, err
	}

	r, calls, saves, err := run(7.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"w1:base", "w1:head", "w1:head", "w1:base", "w1:base", "w1:head", "w1:head", "w1:base",
		"w2:head", "w2:base", "w2:base", "w2:head", "w2:head", "w2:base", "w2:base", "w2:head",
	}
	if !slices.Equal(calls, want) {
		t.Errorf("runs in order %v, want %v", calls, want)
	}
	if saves != 8 {
		t.Errorf("saved %d times, want once per pair (8)", saves)
	}
	if !r.Complete || !r.Pass || len(r.Failures) != 0 {
		t.Errorf("complete %v, pass %v, failures %v; want a passing report", r.Complete, r.Pass, r.Failures)
	}
	if want := []string{"w1 ttfb_s_p50", "w2 ttfb_s_p50"}; !slices.Equal(r.Gains, want) || len(r.Losses) != 0 {
		t.Errorf("gains %v, losses %v; want gains %v", r.Gains, r.Losses, want)
	}
	for _, g := range r.Groups {
		if len(g.Runs) != 4 || len(g.Metrics) != 3 {
			t.Fatalf("%s: %d pairs, %d metrics", g.Workload, len(g.Runs), len(g.Metrics))
		}
		if v := g.Metrics[1].Verdict; v != "flat" {
			t.Errorf("%s: job_s_p50, which drifts on both sides alike, reads %q", g.Workload, v)
		}
		if v := g.Metrics[2].Verdict; v != "equal" {
			t.Errorf("%s: modeled_gcups reads %q, want equal", g.Workload, v)
		}
		if g.Metrics[0].RawRatio == nil || fmt.Sprintf("%.4f", g.Metrics[0].RawRatio.Median) != "0.7500" {
			t.Errorf("%s: raw ratio %+v, want median 0.75", g.Workload, g.Metrics[0].RawRatio)
		}
	}

	r, _, _, err = run(7.6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass || len(r.Failures) != 2 || !strings.Contains(r.Failures[0], "modeled_gcups differs") {
		t.Errorf("a moved modeled metric: pass %v, failures %v; want one failure per workload", r.Pass, r.Failures)
	}
}

func TestSeedCacheCopies(t *testing.T) {
	from, to := filepath.Join(t.TempDir(), "gocache"), filepath.Join(t.TempDir(), ".bench_build", "gocache")
	files := map[string]string{"README": "cache", "trim.txt": "1700000000", "0a/0a1b-a": "v1 entry", "ff/ffee-d": "object"}
	for name, body := range files {
		path := filepath.Join(from, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedCache(from, to); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		got, err := os.ReadFile(filepath.Join(to, name))
		if err != nil || string(got) != body {
			t.Errorf("%s: %q, %v; want %q", name, got, err, body)
		}
	}
	// A copy, not a link: the go command rewrites entries in place.
	if err := os.WriteFile(filepath.Join(to, "0a/0a1b-a"), []byte("v1 rewritten"), 0o666); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(from, "0a/0a1b-a")); string(got) != "v1 entry" {
		t.Errorf("writing the seeded entry changed the source's to %q", got)
	}

	none := filepath.Join(t.TempDir(), "none")
	if err := seedCache(filepath.Join(t.TempDir(), "missing"), none); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(none); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("seeding from a missing cache created %s (%v)", none, err)
	}
}

// TestBuildSidesSeedsNewCheckouts: each checkout with no cache yet builds
// on a copy of the invoking checkout's cache when it has one, else of the
// first side's; the invoking checkout, as the head, builds on its own
// cache when it has one, else on the base's.
func TestBuildSidesSeedsNewCheckouts(t *testing.T) {
	// fakeBuild records which cache entries the checkout had before it
	// built, then adds its own, as a build would.
	type built struct{ dir, had string }
	var log []built
	fakeBuild := func(_ context.Context, dir string) error {
		entries, _ := os.ReadDir(goCache(dir))
		var had []string
		for _, e := range entries {
			had = append(had, e.Name())
		}
		log = append(log, built{dir, strings.Join(had, ",")})
		if err := os.MkdirAll(goCache(dir), 0o777); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(goCache(dir), "from-"+filepath.Base(dir)), nil, 0o666)
	}
	for _, c := range []struct {
		name      string
		rootCache bool
		headIsWT  bool
		want      []string // what each side had before it built
	}{
		{"root cache, two worktrees", true, false, []string{"from-root", "from-root"}},
		{"no root cache, two worktrees", false, false, []string{"", "from-base"}},
		{"root cache, working tree head", true, true, []string{"from-root", "from-root"}},
		{"no root cache, working tree head", false, true, []string{"", "from-base"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			root := filepath.Join(tmp, "root")
			if c.rootCache {
				if err := os.MkdirAll(goCache(root), 0o777); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(goCache(root), "from-root"), nil, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			base := side{Rev: "base", dir: filepath.Join(tmp, "base")}
			head := side{Rev: "head", dir: filepath.Join(tmp, "head")}
			if c.headIsWT {
				head.dir = root
			}
			log = nil
			if err := buildSides(context.Background(), root, []side{base, head}, fakeBuild); err != nil {
				t.Fatal(err)
			}
			if len(log) != 2 || log[0].dir != base.dir || log[1].dir != head.dir {
				t.Fatalf("built %+v, want base then head", log)
			}
			for i, b := range log {
				if b.had != c.want[i] {
					t.Errorf("%s built on %q, want %q", b.dir, b.had, c.want[i])
				}
			}
		})
	}
}
