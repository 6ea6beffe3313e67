package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"testing"
)

// testSize keeps all four workloads plus their traced runs within a few
// seconds; the assertions are about shape and exact counts, not speed.
const (
	testSize    = 0.05
	testSeconds = 0.2
)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Fatal("BENCHMARK.json differs from the program's definitions; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

// TestManifestWithinContract holds the definitions to the limits the
// benchmark driver refuses a manifest over.
func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(specs) < 2 || len(specs) > 8 {
		t.Errorf("%d workloads", len(specs))
	}
	for _, s := range specs {
		use(s.name)
		if len(s.why) == 0 || len(s.why) > 200 {
			t.Errorf("%s: why is %d characters", s.name, len(s.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound != nil && (*d.Bound < 0 || *d.Bound > 0.25) {
			t.Errorf("%s: bound %g", d.Name, *d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
	}
	for _, d := range endToEnd {
		if *d.Bound > setupBound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
	if len(manifest()) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(manifest()))
	}
}

func TestWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res, err := runEndToEnd(ctx, s, defaultSeed, testSize, testSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd, true)

			var traced [2]result
			for i := range traced {
				if traced[i], err = runTraced(ctx, s, defaultSeed, testSize, testSeconds, t.TempDir()); err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, traced[i], perLayer, false)
				if r := traced[i].Metrics["trace.self_sum_ratio"].Value; r < 0.95 || r > 1.05 {
					t.Errorf("trace.self_sum_ratio = %g, want within 0.95–1.05", r)
				}
			}
			for _, d := range perLayer {
				a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value
				if d.deterministic && a != b {
					t.Errorf("%s is a count but read %v then %v", d.Name, a, b)
				}
			}
		})
	}
}

// checkMetrics asserts res carries exactly the defined metrics, finite,
// and (end to end) never zero.
func checkMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s missing", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s = %v, want > 0", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s unit %q, defined %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("two-point quartiles = %g, %g", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2e("job_s_p50", "s", "lower", 0.10)
	higher := e2e("cmps_per_s", "1/s", "higher", 0.10)
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, c := range []struct {
		name      string
		def       metricDef
		base, cur []float64
		want      string
	}{
		{"within bound", lower, steady, []float64{105, 104, 106, 105, 105}, "unchanged"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "improved"},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"more throughput", higher, steady, []float64{120}, "improved"},
		{"spread hides a loss", lower, noisy, []float64{120, 121, 119, 120, 120}, "unresolved"},
		{"spread hides no change", lower, noisy, steady, "unresolved"},
		{"every run better despite spread", lower, noisy, []float64{50, 51, 49, 50, 50}, "improved"},
	} {
		if got := verdict(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
