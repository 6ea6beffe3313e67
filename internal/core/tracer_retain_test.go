package core

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// TestTracerTrimReleasesOversizedBuffers is the allocation-regression
// test for the pooled-workspace retention bug: one outlier traceback
// used to pin its worst-case recording arena on the workspace forever.
// After an oversized replay every recording buffer past
// tracerRetainBytes must be released, and a subsequent ordinary
// traceback must leave only modest warm buffers behind.
func TestTracerTrimReleasesOversizedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// ~20k x 20k at DeltaB=512 records ~40k antidiagonals x ~1k-wide
	// band: ~10 MB of packed direction codes, far past the 1 MiB
	// retention threshold. X=200 keeps the low-divergence extension
	// alive end to end.
	h := randDNA(rng, 20000)
	v := mutate(rng, h, 0.02)
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 200, DeltaB: 512, Algo: AlgoRestricted2}

	var ws Workspace
	tr, err := ws.TracebackRight(h, v, 0, 0, p)
	if err != nil {
		t.Fatalf("oversized traceback: %v", err)
	}
	if tr.TraceBytes <= tracerRetainBytes {
		t.Fatalf("test geometry too small: TraceBytes %d <= retention threshold %d", tr.TraceBytes, tracerRetainBytes)
	}
	if c := cap(ws.tb.dirs); c != 0 {
		t.Fatalf("direction buffer retained after oversized replay: cap %d", c)
	}
	if c := cap(ws.tb.runs) * runBytes; c > tracerRetainBytes {
		t.Fatalf("runs scratch retained past threshold: %d bytes", c)
	}
	if c := cap(ws.tb.codes); c > tracerRetainBytes {
		t.Fatalf("codes scratch retained past threshold: cap %d", c)
	}
	if c := cap(ws.tb.cls) * 4; c > tracerRetainBytes {
		t.Fatalf("cls buffer retained past threshold: %d bytes", c)
	}
	if c := cap(ws.tb.offs) * 4; c > tracerRetainBytes {
		t.Fatalf("offs buffer retained past threshold: %d bytes", c)
	}

	// A small follow-up replay on the same (pooled) workspace must work
	// and leave only sub-threshold buffers warm.
	sh := randDNA(rng, 300)
	sv := mutate(rng, sh, 0.05)
	sp := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256, Algo: AlgoRestricted2}
	if _, err := ws.TracebackRight(sh, sv, 0, 0, sp); err != nil {
		t.Fatalf("small traceback after trim: %v", err)
	}
	if c := cap(ws.tb.dirs); c == 0 || c > tracerRetainBytes {
		t.Fatalf("small replay should leave a warm sub-threshold dirs buffer, got cap %d", c)
	}
	if c := cap(ws.tb.runs); c == 0 {
		t.Fatal("small replay should leave a warm runs scratch")
	}

	// The walk's run scratch is held to the same bound: a path of more
	// than tracerRetainBytes of runs (an outlier this geometry cannot
	// reach cheaply) is released by the next trim.
	ws.tb.runs = make([]alignment.Run, 0, tracerRetainBytes/runBytes+1)
	ws.tb.trim()
	if ws.tb.runs != nil {
		t.Fatalf("runs scratch of %d bytes retained past threshold", (tracerRetainBytes/runBytes+1)*runBytes)
	}
}
