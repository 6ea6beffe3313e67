package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// smokeOptions keeps every experiment small enough for unit testing.
func smokeOptions(buf *bytes.Buffer) Options {
	return Options{W: buf, Scale: 32, SizeFactor: 0.08, Seed: 7}
}

// smokeOutputs holds what each runner rendered under TestExperimentsSmoke,
// so TestExperimentsDeterministic needs only one more run per runner.
var smokeOutputs = map[string][]byte{}

func runSmoke(t *testing.T, r Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Run(smokeOptions(&buf)); err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	return buf.Bytes()
}

// TestExperimentsSmoke runs every registered experiment at miniature size
// and compares the suite's output, byte for byte, with
// testdata/smoke.golden — what `benchtables -scale 32 -size 0.08 -seed 7`
// printed on the tree at ec68973. A refactor that moves a table (a
// dataset edit silently ignored, say) fails here; a change meant to move
// one regenerates the file with that command and says so.
func TestExperimentsSmoke(t *testing.T) {
	var suite bytes.Buffer
	ran := 0
	for _, r := range Experiments() {
		t.Run(r.Name, func(t *testing.T) {
			ran++
			out := runSmoke(t, r)
			if len(out) == 0 {
				t.Fatalf("%s produced no output", r.Name)
			}
			smokeOutputs[r.Name] = out
			fmt.Fprintf(&suite, "=== %s: %s ===\n\n%s", r.Name, r.Artifact, out)
		})
	}
	if ran != len(Experiments()) {
		return // -run selected a subset of the runners
	}
	want, err := os.ReadFile("testdata/smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/smoke.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output is %d lines, testdata/smoke.golden %d", len(gl), len(wl))
	}
}

// TestExperimentsDeterministic pins that every runner is a pure function
// of (Scale, SizeFactor, Seed): a second run at smokeOptions renders the
// same bytes as the first. A runner that reads the host clock fails here.
func TestExperimentsDeterministic(t *testing.T) {
	for _, r := range Experiments() {
		first, ok := smokeOutputs[r.Name]
		if !ok { // TestExperimentsSmoke filtered out by -run
			first = runSmoke(t, r)
		}
		if second := runSmoke(t, r); !bytes.Equal(first, second) {
			t.Errorf("%s: two runs at the same options differ:\n--- first\n%s\n--- second\n%s", r.Name, first, second)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig5"); !ok {
		t.Error("fig5 not registered")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown experiment resolved")
	}
}

func TestRunAllPrefixesSections(t *testing.T) {
	// RunAll on a tiny configuration must emit one header per runner.
	// Restrict to the cheap experiments by spot-checking headers after a
	// single representative run instead of the full (expensive) suite.
	var buf bytes.Buffer
	opt := smokeOptions(&buf)
	r, _ := ByName("fig1")
	if err := r.Run(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 1") {
		t.Error("fig1 table missing title")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 8 || o.SizeFactor != 1.0 || o.Seed == 0 || o.W == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.n(100) != 100 {
		t.Error("n() scaling broken")
	}
	o.SizeFactor = 0.001
	if o.n(100) < 1 {
		t.Error("n() must stay positive")
	}
}

func TestStandaloneDatasetsValid(t *testing.T) {
	opt := Options{Scale: 32, SizeFactor: 0.05, Seed: 3}.withDefaults()
	for _, d := range opt.StandaloneDatasets() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if len(d.Comparisons) == 0 {
			t.Errorf("%s has no comparisons", d.Name)
		}
	}
}
