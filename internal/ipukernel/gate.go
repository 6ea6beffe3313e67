package ipukernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Gate gives some executions on one host priority over the rest at tile
// granularity: the first executions, whose results a caller waits on. A
// worker of any other execution waits before claiming its next tile while
// some first execution still has a tile left to claim; the tile it is
// running is never interrupted. First executions line up in the order they
// start, and one waits the same way while an earlier one has a tile left,
// so one first execution at a time computes at the host's whole width.
// The gate opens when the first execution's last tile is claimed, not when
// that execution returns, so its tail shares the host with the next in
// line and no processor idles while tiles wait.
//
// A gate can also ask one worker to step aside for a tile (Pause): the
// next worker of a yielding execution to finish a tile while another
// worker runs at the gate parks until some other worker there claims a
// tile or exits. Its processor then finds no goroutine to run, and the
// runtime polls the network there, not only every 10 ms from sysmon: a
// reader that a flushed line woke gets a processor while every other one
// computes tiles. An unused pause lapses when the gate's last worker
// exits.
//
// A gate orders executions that share one gate only: executions on two
// gates never wait on each other. Results never depend on it; only which
// tile computes when does.
type Gate struct {
	mu     sync.Mutex
	moved  sync.Cond     // done grew, or a worker standing aside may go
	queued atomic.Uint64 // first executions that have lined up
	done   atomic.Uint64 // of those, the ones whose last tile is claimed: the line's head is the next
	pause  atomic.Bool   // a pause no worker has taken
	aside  atomic.Int32  // workers standing aside for a pause, changed under mu
	parked int           // workers waiting at the gate, guarded by mu
	active int           // workers running at the gate and not standing aside, guarded by mu
	steps  uint64        // claims and exits since a worker stood aside, guarded by mu
}

// NewGate returns an open gate.
func NewGate() *Gate {
	g := new(Gate)
	g.moved.L = &g.mu
	return g
}

// A Turn is one execution's place at a Gate: first, or yielding to the
// first ones. The zero Turn is ungated, as Run is.
type Turn struct {
	gate  *Gate
	first bool
}

// Turn returns an execution's place at g: first if a caller waits on its
// results, yielding otherwise. A nil g gives an ungated Turn.
func (g *Gate) Turn(first bool) Turn { return Turn{g, first} }

// Pause asks one worker to step aside for a tile: the next worker of a
// yielding execution to finish a tile while another worker runs at g. A
// first execution's workers never do. The pause lapses unused when g's
// last worker exits, so a later execution's workers find none.
func (g *Gate) Pause() { g.pause.Store(true) }

// claims is one execution's tile cursor at its Turn: the workers of a Run
// claim tiles through it. It is passed by value; only the cursor is
// shared.
type claims struct {
	Turn
	n      int64
	line   uint64 // a first execution's place in the gate's line
	cursor *atomic.Int64
}

// claims starts an execution of n tiles. A first execution with a tile to
// claim lines up at its gate.
func (t Turn) claims(n int) claims {
	c := claims{Turn: t, n: int64(n), cursor: new(atomic.Int64)}
	if t.gate != nil && t.first && n > 0 {
		c.line = t.gate.queued.Add(1) - 1
	}
	return c
}

// enter and leave bracket one worker's time at the gate. The last worker
// to leave lapses an unused pause; any leaving releases a worker standing
// aside.
func (c claims) enter() {
	if g := c.gate; g != nil {
		g.mu.Lock()
		g.active++
		g.mu.Unlock()
	}
}

func (c claims) leave() {
	if g := c.gate; g != nil {
		g.mu.Lock()
		if g.active--; g.active == 0 {
			g.pause.Store(false)
		}
		g.stepLocked()
		g.mu.Unlock()
	}
}

// step follows each tile a worker computes: the worker stands aside for a
// pause it may take, or else yields the processor.
func (c claims) step() {
	if g := c.gate; g != nil && !c.first && g.pause.Load() && g.standAside() {
		return
	}
	runtime.Gosched()
}

// standAside takes the pause and parks the calling worker until another
// worker claims a tile or leaves. It takes nothing, and returns false,
// while no other worker is active at the gate.
func (g *Gate) standAside() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.active < 2 || !g.pause.CompareAndSwap(true, false) {
		return false
	}
	g.active--
	g.aside.Add(1)
	for seen := g.steps; g.steps == seen; {
		g.moved.Wait()
	}
	g.aside.Add(-1)
	g.active++
	return true
}

// stepLocked releases the workers standing aside: a peer has claimed a
// tile or left.
func (g *Gate) stepLocked() {
	if g.aside.Load() > 0 {
		g.steps++
		g.moved.Broadcast()
	}
}

// held reports whether a worker of this gated execution must wait before
// its next claim: a yielding one while any first execution in line has a
// tile left, a first one while an execution ahead of it in line has.
func (c claims) held() bool {
	if c.first {
		return c.gate.done.Load() < c.line
	}
	return c.gate.done.Load() < c.gate.queued.Load()
}

// next claims the execution's next tile, after waiting at the gate while
// the execution is held there; ok is false once every tile is claimed. The
// claim of a first execution's last tile lets the next in line go, and
// any claim releases a worker standing aside.
func (c claims) next() (ti int, ok bool) {
	if c.gate != nil && c.held() {
		c.wait()
	}
	i := c.cursor.Add(1) - 1
	if c.first && i == c.n-1 && c.gate != nil {
		c.gate.open()
	}
	if c.gate != nil && c.gate.aside.Load() > 0 {
		c.gate.mu.Lock()
		c.gate.stepLocked()
		c.gate.mu.Unlock()
	}
	return int(i), i < c.n
}

// wait parks the calling worker while its execution is held at the gate.
func (c claims) wait() {
	g := c.gate
	g.mu.Lock()
	g.parked++
	for c.held() {
		g.moved.Wait()
	}
	g.parked--
	g.mu.Unlock()
}

// open records that the line's head has claimed its last tile, and wakes
// the parked workers: the next in line, or, with none, every other.
func (g *Gate) open() {
	g.done.Add(1)
	g.mu.Lock()
	if g.parked > 0 {
		g.moved.Broadcast()
	}
	g.mu.Unlock()
}
