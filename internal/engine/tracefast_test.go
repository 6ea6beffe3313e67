package engine

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/driver"
)

// TestWithTraceMinScoreOptionFingerprint: with traceback on, the score
// gate must split the kernel fingerprint (gated and ungated runs record
// different payloads, so their cache entries must never alias); with
// traceback off the knob is inert and must not split score-only caches.
func TestWithTraceMinScoreOptionFingerprint(t *testing.T) {
	on := testCfg(1)
	on.Traceback = true
	onN := on.Normalized()
	gated := on
	gated.Kernel.TraceMinScore = 80
	gatedN := gated.Normalized()
	if driver.KernelFingerprint(onN.Kernel) == driver.KernelFingerprint(gatedN.Kernel) {
		t.Fatal("trace score gate does not change the traceback kernel fingerprint")
	}

	off := testCfg(1).Normalized()
	gatedOff := testCfg(1)
	gatedOff.Kernel.TraceMinScore = 80
	gatedOffN := gatedOff.Normalized()
	if driver.KernelFingerprint(off.Kernel) != driver.KernelFingerprint(gatedOffN.Kernel) {
		t.Fatal("trace score gate split the score-only fingerprint; score-only runs should share entries")
	}

	e := New(WithDriverConfig(gated))
	defer e.Close()
	if e.Config().Kernel.TraceMinScore != 80 {
		t.Fatal("Kernel.TraceMinScore did not reach the engine's config")
	}
}

// TestEngineTraceCounters: the traced/skipped extension counters must
// aggregate through Engine.Stats — every extension traced on an ungated
// traceback engine, every extension skipped under an unreachable gate.
func TestEngineTraceCounters(t *testing.T) {
	d := readsData(t, 31, 16)
	cfg := testCfg(1)
	cfg.Traceback = true

	e := New(WithDriverConfig(cfg))
	job := submit(t, e, d)
	collectStream(t, job, len(d.Comparisons))
	st := e.Stats()
	e.Close()
	if st.TracedExtensions != int64(2*len(d.Comparisons)) || st.TraceSkippedExtensions != 0 {
		t.Fatalf("ungated engine: traced=%d skipped=%d, want %d/0",
			st.TracedExtensions, st.TraceSkippedExtensions, 2*len(d.Comparisons))
	}

	cfg.Kernel.TraceMinScore = 1 << 30
	g := New(WithDriverConfig(cfg))
	job = submit(t, g, d)
	got := collectStream(t, job, len(d.Comparisons))
	st = g.Stats()
	g.Close()
	if st.TraceSkippedExtensions != int64(2*len(d.Comparisons)) || st.TracedExtensions != 0 {
		t.Fatalf("gated engine: traced=%d skipped=%d, want 0/%d",
			st.TracedExtensions, st.TraceSkippedExtensions, 2*len(d.Comparisons))
	}
	for i, r := range got {
		if r.Cigar != "" || r.TraceBytes != 0 {
			t.Fatalf("comparison %d under an unreachable gate carries trace payload: %+v", i, r)
		}
	}
}
