package ipukernel

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
)

// parkedNow is how many workers wait at g.
func (g *Gate) parkedNow() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parked
}

// awaitParked returns once n workers wait at g, or fails the test if done
// is closed first: what it stands for claimed past the closed gate.
func awaitParked(t *testing.T, g *Gate, n int, done <-chan struct{}) {
	t.Helper()
	for g.parkedNow() < n {
		select {
		case <-done:
			t.Fatalf("a yielding worker claimed a tile at a closed gate (%d of %d parked)", g.parkedNow(), n)
		default:
			runtime.Gosched()
		}
	}
}

// within receives from ch, or fails the test after ten seconds.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting", what)
	}
	var zero T
	return zero
}

// TestGateHoldsYieldingRun: while a first execution has a tile left to
// claim, no worker of a yielding Run claims one: all of them park at the
// gate before their first claim. Once the first execution's tiles are
// claimed the Run goes on, and its results are the ungated Run's.
func TestGateHoldsYieldingRun(t *testing.T) {
	const workers = 2
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, _ := buildBatch(t, 6, 300, 0.15, 5)
	cfg := stealCfg(12)
	cfg.Parallelism = workers
	want := mustRun(t, dev, b, cfg)

	g := NewGate()
	first := g.Turn(true).claims(2) // a first execution, its two tiles unclaimed
	done := make(chan struct{})
	var got *BatchResult
	var err error
	go func() {
		defer close(done)
		got, err = g.Turn(false).Run(dev, b, cfg)
	}()
	awaitParked(t, g, workers, done)
	for range 2 {
		if _, ok := first.next(); !ok {
			t.Fatal("the first execution ran out of tiles early")
		}
	}
	within(t, done, "the yielding Run after the first execution's last claim")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a Run held at the gate differs from the ungated Run")
	}
}

// TestGateOpensAtLastClaim: the gate is work-conserving. A yielding
// worker parked behind a first execution claims its tile as soon as the
// first execution's last tile is claimed, before that execution's workers
// find the cursor empty and return; claiming an earlier tile releases
// nothing.
func TestGateOpensAtLastClaim(t *testing.T) {
	g := NewGate()
	first := g.Turn(true).claims(2)
	other := g.Turn(false).claims(3)
	claimed, returned := make(chan int, 1), make(chan struct{})
	go func() {
		ti, _ := other.next()
		claimed <- ti
		close(returned)
	}()
	awaitParked(t, g, 1, returned)
	if ti, ok := first.next(); ti != 0 || !ok {
		t.Fatalf("first claim: tile %d (%v), want 0", ti, ok)
	}
	if g.parkedNow() != 1 || len(claimed) != 0 {
		t.Fatal("the yielding worker left the gate while the first execution had a tile left")
	}
	if ti, ok := first.next(); ti != 1 || !ok {
		t.Fatalf("second claim: tile %d (%v), want 1", ti, ok)
	}
	if ti := within(t, claimed, "the yielding worker after the first execution's last claim"); ti != 0 {
		t.Fatalf("the yielding worker claimed tile %d, want 0", ti)
	}
	if _, ok := first.next(); ok {
		t.Fatal("the first execution claimed a third tile of two")
	}
}

// TestGateLinesUpFirstExecutions: first executions go one at a time, in
// the order they started. A later one's worker parks while an earlier one
// has a tile left and claims once that one's last tile is claimed; a
// yielding worker waits for the whole line.
func TestGateLinesUpFirstExecutions(t *testing.T) {
	g := NewGate()
	a := g.Turn(true).claims(2)
	b := g.Turn(true).claims(2)
	y := g.Turn(false).claims(1)
	claim := func(c claims) (<-chan int, <-chan struct{}) {
		claimed, returned := make(chan int, 1), make(chan struct{})
		go func() {
			ti, _ := c.next()
			claimed <- ti
			close(returned)
		}()
		return claimed, returned
	}
	bClaimed, bReturned := claim(b)
	awaitParked(t, g, 1, bReturned)
	yClaimed, yReturned := claim(y)
	awaitParked(t, g, 2, yReturned)
	a.next()
	a.next() // a's last tile: b goes, y still waits
	if ti := within(t, bClaimed, "the later first execution after the earlier one's last claim"); ti != 0 {
		t.Fatalf("the later first execution claimed tile %d, want 0", ti)
	}
	if g.parkedNow() != 1 || len(yClaimed) != 0 {
		t.Fatal("the yielding worker left the gate while a first execution had a tile left")
	}
	b.next() // b's last tile: y goes
	within(t, yClaimed, "the yielding worker after the line's last claim")
}

// TestGatesAreIndependent: executions at two gates never wait on each
// other. A first execution holding one gate shut leaves a yielding Run at
// the other free, and parks nothing at its own.
func TestGatesAreIndependent(t *testing.T) {
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, _ := buildBatch(t, 4, 300, 0.15, 6)
	cfg := stealCfg(12)
	g1, g2 := NewGate(), NewGate()
	held := g1.Turn(true).claims(1)
	done := make(chan error, 1)
	go func() {
		_, err := g2.Turn(false).Run(dev, b, cfg)
		done <- err
	}()
	if err := within(t, done, "a yielding Run at a second gate"); err != nil {
		t.Fatal(err)
	}
	if n := g1.parkedNow(); n != 0 {
		t.Fatalf("%d workers parked at the other gate", n)
	}
	held.next()
}
