package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// TestTracerTrimReleasesOversizedBuffers is the allocation-regression
// test for the pooled-workspace retention bug: one outlier traceback
// used to pin its worst-case recording arena on the workspace forever.
// After an oversized replay every recording buffer past
// retainBytes must be released, and a subsequent ordinary
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
	if tr.TraceBytes <= retainBytes {
		t.Fatalf("test geometry too small: TraceBytes %d <= retention threshold %d", tr.TraceBytes, retainBytes)
	}
	if c := cap(ws.tb.dirs); c != 0 {
		t.Fatalf("direction buffer retained after oversized replay: cap %d", c)
	}
	if c := cap(ws.tb.runs) * runBytes; c > retainBytes {
		t.Fatalf("runs scratch retained past threshold: %d bytes", c)
	}
	if c := cap(ws.tb.codes); c > retainBytes {
		t.Fatalf("codes scratch retained past threshold: cap %d", c)
	}
	if c := cap(ws.tb.cls) * 4; c > retainBytes {
		t.Fatalf("cls buffer retained past threshold: %d bytes", c)
	}
	if c := cap(ws.tb.offs) * 4; c > retainBytes {
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
	if c := cap(ws.tb.dirs); c == 0 || c > retainBytes {
		t.Fatalf("small replay should leave a warm sub-threshold dirs buffer, got cap %d", c)
	}
	if c := cap(ws.tb.runs); c == 0 {
		t.Fatal("small replay should leave a warm runs scratch")
	}

	// The walk's run scratch is held to the same bound: a path of more
	// than retainBytes of runs (an outlier this geometry cannot
	// reach cheaply) is released by the next trim.
	ws.tb.runs = make([]alignment.Run, 0, retainBytes/runBytes+1)
	ws.tb.trim()
	if ws.tb.runs != nil {
		t.Fatalf("runs scratch of %d bytes retained past threshold", (retainBytes/runBytes+1)*runBytes)
	}
}

// TestWorkspaceTrimReleasesOversizedBuffers: Trim drops every score
// buffer, staged operand and batch buffer whose array is past retainBytes
// and keeps the ones within it, and a trimmed workspace still extends.
func TestWorkspaceTrimReleasesOversizedBuffers(t *testing.T) {
	const big, small = retainBytes/4 + 1, retainBytes / 4 // int32 cells
	var ws Workspace
	ws.wide.b0, ws.wide.b1, ws.alt.b2 = make([]int32, big), make([]int32, small), make([]int32, big)
	ws.wide.e0 = make([]int32, big)
	ws.hq, ws.vq, ws.arena = make([]byte, 4*big), make([]byte, 4*small), make([]byte, 4*big)
	ws.states = make([]sweepState, retainBytes/int(unsafe.Sizeof(sweepState{}))+1)
	ws.Trim()
	if ws.wide.b0 != nil || ws.alt.b2 != nil || ws.wide.e0 != nil || ws.hq != nil || ws.arena != nil || ws.states != nil {
		t.Fatal("a buffer past retainBytes survived Trim")
	}
	if ws.wide.b1 == nil || ws.vq == nil {
		t.Fatal("Trim dropped a buffer within retainBytes")
	}
	rng := rand.New(rand.NewSource(10))
	h := randDNA(rng, 500)
	v := mutate(rng, h, 0.05)
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 20, DeltaB: 64}
	pairs := []seqPair{{h, v}, {v, h}}
	if got, want := ws.queue(p, pairs), extendAll(p, pairs...); !slices.Equal(got, want) {
		t.Fatalf("after Trim: %+v, want %+v", got, want)
	}

	// A batch whose arena is past retainBytes: Trim drops it, and the
	// states, which point into it, let go of it too.
	if !rowVec {
		return // without the assembly a batch runs side by side, in no arena
	}
	bh, bv := randDNA(rng, retainBytes/2), randDNA(rng, retainBytes/2)
	sides := []Side{{H: h, V: v}, {H: bh, V: bv, HOff: len(bh), VOff: len(bv), Left: true}}
	ws.ExtendBatch(&p, sides, make([]Result, len(sides)))
	if cap(ws.arena) <= retainBytes {
		t.Fatalf("test geometry: an arena of %d bytes", cap(ws.arena))
	}
	ws.Trim()
	if ws.arena != nil {
		t.Fatal("an arena past retainBytes survived Trim")
	}
	for i, st := range ws.states[:cap(ws.states)] {
		if st.hq != nil || st.vq != nil {
			t.Fatalf("state %d still points into the released arena", i)
		}
	}
}
