package backend

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testData(t *testing.T) *workload.Dataset {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 12, Length: 600, ErrorRate: 0.1, SeedLen: 17, Seed: 1,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func ipuBackend(x int) *IPU {
	return &IPU{Cfg: driver.Config{
		IPUs: 2, Model: platform.GC200, TilesPerIPU: 8, Partition: true,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
	}}
}

// TestAllBackendsAgreeOnScores: the executor changes time, never results
// (IPU and CPU-seqan share the exact same search space).
func TestAllBackendsAgreeOnScores(t *testing.T) {
	d := testData(t)
	x := 10
	ipu, err := ipuBackend(x).Align(d)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := (&CPU{Model: platform.EPYC7763, X: x}).Align(d)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := (&GPU{Model: platform.A100, GPUs: 1, X: x}).Align(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Comparisons {
		if ipu.Alignments[i] != cpu.Alignments[i] || cpu.Alignments[i] != gpu.Alignments[i] {
			t.Fatalf("cmp %d: backends disagree: ipu=%+v cpu=%+v gpu=%+v",
				i, ipu.Alignments[i], cpu.Alignments[i], gpu.Alignments[i])
		}
	}
	for _, o := range []*Outcome{ipu, cpu, gpu} {
		if o.Seconds <= 0 {
			t.Errorf("%s reported non-positive time", o.Name)
		}
	}
}

func TestCPUImplSelection(t *testing.T) {
	d := testData(t)
	for _, impl := range []CPUImpl{CPUSeqAn, CPUKsw2, CPUGenomeTools, ""} {
		b := &CPU{Model: platform.EPYC7763, X: 10, Impl: impl}
		out, err := b.Align(d)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if len(out.Alignments) != len(d.Comparisons) {
			t.Fatalf("%s: wrong result count", impl)
		}
	}
	if _, err := (&CPU{Model: platform.EPYC7763, X: 10, Impl: "magic"}).Align(d); err == nil {
		t.Error("unknown impl accepted")
	}
}

func TestGPURejectsProtein(t *testing.T) {
	d := testData(t)
	d.Protein = true
	if _, err := (&GPU{Model: platform.A100, X: 10}).Align(d); err == nil {
		t.Error("LOGAN backend accepted protein data")
	}
}

func TestNames(t *testing.T) {
	if (&CPU{Model: platform.EPYC7763}).Name() == "" ||
		(&GPU{Model: platform.A100}).Name() == "" ||
		ipuBackend(5).Name() == "" {
		t.Error("empty backend name")
	}
}

// TestCPUUnknownImplErrorText: the error names the bad impl so service
// operators can spot config typos.
func TestCPUUnknownImplErrorText(t *testing.T) {
	_, err := (&CPU{Model: platform.EPYC7763, X: 10, Impl: "blastn"}).Align(testData(t))
	if err == nil || !strings.Contains(err.Error(), "blastn") {
		t.Fatalf("unknown impl error = %v, want it to name the impl", err)
	}
}

// TestIPUBackendSharedEngine: routing two pipelines through one shared
// engine yields the same alignments and modeled seconds as the one-shot
// driver path of a backend without an engine.
func TestIPUBackendSharedEngine(t *testing.T) {
	d := testData(t)
	solo, err := ipuBackend(10).Align(d)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WithDriverConfig(ipuBackend(10).Cfg))
	defer eng.Close()
	shared := &IPU{Eng: eng}
	if shared.Name() == "" {
		t.Error("shared-engine backend has no name")
	}
	for i := 0; i < 2; i++ {
		out, err := shared.Align(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Alignments, solo.Alignments) {
			t.Fatal("shared engine changed alignments")
		}
		if out.Seconds != solo.Seconds {
			t.Fatalf("shared engine modeled %v s, the one-shot path %v s", out.Seconds, solo.Seconds)
		}
	}
}

// TestIPUBackendPropagatesErrors: an invalid dataset surfaces the
// driver's validation error.
func TestIPUBackendPropagatesErrors(t *testing.T) {
	bad := workload.MustPack("", [][]byte{make([]byte, 40)}, nil, false).
		WithComparisons([]workload.Comparison{{H: 0, V: 2, SeedLen: 9}})
	if _, err := ipuBackend(10).Align(bad); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}
