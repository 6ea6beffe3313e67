package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/workload"
)

// A lab is one registered job on an engine with no executor pool, on a
// manual clock (newMachine), moved one event at a time: an executor's
// issue (pickLocked), compute (Engine.computed) and return (deliverLocked,
// then the landing's evLand in the same hold of the lock), a landing's
// next event (Engine.landStep), the stream's opening (Job.Results), a
// cancellation, and the clock reaching the hedge window, the deadline or
// a backoff. Batch results are computed once and replayed, a fresh copy
// per return. After every move the consumer drains the stream and
// overwrites every result it receives, as a caller may, and check tests
// the job's invariants.
type lab struct {
	tb      testing.TB
	sc      *labScenario
	e       *Engine
	clk     *clock.Manual
	j       *Job
	execs   []*labExec
	landers []*landing
	log     []move // the moves so far, for failure messages

	stream   <-chan Update
	opener   chan (<-chan Update) // a Results call waiting for landings to drain
	closed   bool                 // the stream was closed
	streamed []int                // how often each comparison streamed

	// The model the engine is held to.
	hold        *labExec                        // the execution that computes alone
	issuedAny   bool                            // an execution was issued
	delivered   []*ipukernel.BatchResult        // each batch's delivered result, once
	returned    map[*ipukernel.BatchResult]bool // the results executions returned; the rest are placeholders
	fallback    []bool                          // batches quarantined to the host path
	hedges      int                             // hedges issued
	transients  int                             // transient failures returned
	exceeded    int64                           // deadlines that expired with work outstanding
	opened      bool                            // Results was called
	cancelled   bool                            // the job was cancelled
	clockAt     int                             // 0 before the hedge window, 1 in it, 2 past the deadline
	reportValid bool                            // a completed job's report was checked
}

// labExec is one execution an executor would be running. Only one
// issued while its job was alone computes as an event of its own: the
// executor tells the engine of no other's compute.
type labExec struct {
	bi             int
	host           bool  // a quarantined batch's reference-host-path execution
	issued         int64 // when it was issued, as deliver is told
	computed, done bool
}

// labScenario is what a lab is built from: a plan, its batches' results,
// driver.Run's report of it, and the engine's deadline policy.
type labScenario struct {
	d        *workload.Dataset
	bp       *driver.BatchPlan
	ref      *driver.Report
	results  []*ipukernel.BatchResult
	deadline bool // a one-second deadline, its hedge window the last 200 ms
	mode     DegradedMode
	cached   bool // the plan was built against a result cache
}

const labDeadline, labWindow = time.Second, 200 * time.Millisecond

// newLabScenario builds d's plan under cfg and computes each batch once.
func newLabScenario(tb testing.TB, d *workload.Dataset, cfg driver.Config) *labScenario {
	tb.Helper()
	bp, err := driver.BuildBatches(context.Background(), d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := driver.Run(d, cfg) // a cache answers it as it answered the plan
	if err != nil {
		tb.Fatal(err)
	}
	sc := &labScenario{d: d, bp: bp, ref: ref, cached: cfg.Cache != nil}
	dev := bp.NewDevice()
	for bi := range bp.Batches() {
		res, err := bp.ExecBatch(dev, bi, bp.KernelConfig(1))
		if err != nil {
			tb.Fatal(err)
		}
		sc.results = append(sc.results, res)
	}
	return sc
}

// newLab registers the scenario's job, as runJob would, on a fresh
// engine.
func newLab(tb testing.TB, sc *labScenario) *lab {
	e, j := newMachine(sc.bp, sc.mode)
	e.landed.L = &e.mu
	built := make(chan struct{})
	close(built)
	j.built = built
	if sc.cached {
		j.expand, j.cachedResults = sc.bp.ResultExpander(), sc.bp.CachedResults()
	}
	nb := sc.bp.Batches()
	l := &lab{
		tb: tb, sc: sc, e: e, clk: e.clk.(*clock.Manual), j: j,
		streamed:  make([]int, len(sc.d.Comparisons)),
		delivered: make([]*ipukernel.BatchResult, nb),
		fallback:  make([]bool, nb),
		returned:  map[*ipukernel.BatchResult]bool{},
	}
	if sc.deadline {
		e.deadline, e.hedgeWindow = labDeadline, labWindow
		e.mu.Lock()
		j.deadline = e.clk.Now().Add(labDeadline)
		e.armLocked(j)
		e.mu.Unlock()
	}
	return l
}

func (l *lab) fail(format string, args ...any) {
	l.tb.Helper()
	l.tb.Fatalf("%s\nafter %v", fmt.Sprintf(format, args...), l.log)
}

// A move is one event the lab can make happen; i picks the execution or
// the landing.
type move struct {
	kind moveKind
	i    int
}

type moveKind uint8

const (
	mIssue    moveKind = iota // an idle executor picks work
	mCompute                  // execution i has computed
	mReturn                   // execution i returns its result
	mFail                     // execution i fails transiently, before computing
	mLand                     // landing i takes its next event
	mOpen                     // the caller opens the stream
	mCancel                   // the caller cancels the job
	mWindow                   // the clock reaches the hedge window
	mDeadline                 // the clock reaches the deadline
	mTick                     // the clock fires a backoff
)

func (m move) String() string {
	return fmt.Sprintf("%s%d", [...]string{"issue", "compute", "return", "fail", "land", "open", "cancel", "window", "deadline", "tick"}[m.kind], m.i)
}

// labOpts says which of the optional events a run may make happen, at
// most once each.
type labOpts struct{ open, cancel, fault bool }

// moves lists the events that can happen next. Once the job has settled
// only the first is listed: what is left — executions returning into a
// settled job, landings ending, a stream replayed and closed — comes to
// the same end in any order, and check still runs after each.
func (l *lab) moves(o labOpts) []move {
	e, j := l.e, l.j
	e.mu.Lock()
	defer e.mu.Unlock()
	var ms []move
	if l.canIssue() {
		ms = append(ms, move{mIssue, 0})
	}
	for i, x := range l.execs {
		switch {
		case x.done:
		case x.host || x.computed:
			ms = append(ms, move{mReturn, i})
		default:
			ms = append(ms, move{mCompute, i})
			if o.fault && l.transients == 0 {
				ms = append(ms, move{mFail, i})
			}
		}
	}
	for i, ld := range l.landers {
		if !ld.waiting(j) {
			ms = append(ms, move{mLand, i})
		}
	}
	if o.open && !l.opened {
		ms = append(ms, move{mOpen, 0})
	}
	if j.finished {
		return ms[:min(len(ms), 1)]
	}
	if o.cancel && !l.cancelled {
		ms = append(ms, move{mCancel, 0})
	}
	if l.sc.deadline {
		if l.clockAt == 0 {
			ms = append(ms, move{mWindow, 0})
		}
		// Under DegradePartial the deadline lands its placeholders in the
		// timer's callback, which here is the lab's own goroutine: not
		// while a later landing would wait there for the first to
		// allocate the report.
		if l.clockAt < 2 && (l.sc.mode != DegradePartial || !l.allocating()) {
			ms = append(ms, move{mDeadline, 0})
		}
	}
	for _, b := range j.batches {
		if b.phase == phaseBackoff {
			ms = append(ms, move{mTick, 0})
			break
		}
	}
	return ms
}

// canIssue reports whether pickLocked would issue something the lab
// allows: any fresh or queued work not held back, or, in the hedge window,
// one hedge.
func (l *lab) canIssue() bool {
	j := l.j
	if j.finished {
		return false
	}
	if !j.alone && (len(j.ready) > 0 || j.nextIssue < len(j.batches)) {
		return true
	}
	if l.e.deadline == 0 || !l.e.hedgeOpen(j) || l.hedges > 0 {
		return false
	}
	for _, b := range j.batches {
		if b.phase == phaseRunning && b.inflight > 0 && !b.hedged {
			return true
		}
	}
	return false
}

// canIssueLocked is canIssue under the engine's lock.
func (l *lab) canIssueLocked() bool {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	return l.canIssue()
}

// allocating reports whether the job's first landing has yet to hand over
// the report.
func (l *lab) allocating() bool {
	for _, ld := range l.landers {
		if ld.first {
			return true
		}
	}
	return false
}

// apply makes m happen, lets the stream's consumer run, and, if check is
// set, tests the invariants.
func (l *lab) apply(m move, check bool) {
	l.log = append(l.log, m)
	e, j := l.e, l.j
	switch m.kind {
	case mIssue:
		e.mu.Lock()
		hedge := j.alone || len(j.ready) == 0 && j.nextIssue == len(j.batches)
		pj, bi := e.pickLocked(false)
		if pj != j {
			e.mu.Unlock()
			l.fail("nothing was issued")
		}
		b := &j.batches[bi]
		x := &labExec{bi: bi, host: b.fallback, issued: b.issuedNS, computed: !j.alone}
		e.mu.Unlock()
		if hedge {
			l.hedges++
		}
		if !l.issuedAny && len(j.cachedResults) == 0 && l.clockAt == 0 {
			l.hold = x
		}
		l.issuedAny = true
		l.execs = append(l.execs, x)
	case mCompute:
		x := l.execs[m.i]
		e.computed(j, x.bi)
		x.computed = true
		if l.hold == x {
			l.hold = nil
		}
	case mReturn, mFail:
		x := l.execs[m.i]
		var out *ipukernel.BatchResult
		var err error
		if m.kind == mFail {
			err = errTransient
			l.transients++
		} else {
			res := *l.sc.results[x.bi]
			res.Out = slices.Clone(res.Out)
			out = &res
			l.returned[out] = true
		}
		ev := evReturn
		if x.host {
			ev = evReturnHost
		}
		e.mu.Lock()
		if e.deliverLocked(j, x.bi, ev, out, err, x.issued, 0) {
			ld := &landing{bi: x.bi}
			e.landStep(j, ld)
			l.landers = append(l.landers, ld)
		}
		e.mu.Unlock()
		x.done = true
		if l.hold == x {
			l.hold = nil
		}
	case mLand:
		e.mu.Lock()
		if !e.landStep(j, l.landers[m.i]) {
			l.landers = slices.Delete(l.landers, m.i, m.i+1)
		}
		e.mu.Unlock()
	case mOpen:
		l.opened = true
		e.mu.Lock()
		landing := j.landing > 0
		e.mu.Unlock()
		if !landing {
			l.stream = j.Results()
			break
		}
		ch := make(chan (<-chan Update), 1)
		go func() { ch <- j.Results() }()
		for range 4 {
			runtime.Gosched()
		}
		select {
		case <-ch:
			l.fail("Results returned while a batch was landing")
		default:
			l.opener = ch
		}
	case mCancel:
		l.cancelled = true
		e.mu.Lock()
		e.finishLocked(j, nil, context.Canceled) // as runJob does
		e.mu.Unlock()
	case mWindow:
		l.clockAt, l.hold = 1, nil
		l.clk.Advance(labDeadline - labWindow - l.elapsed())
	case mDeadline:
		e.mu.Lock()
		if !j.finished && j.done < len(j.outs) {
			l.exceeded++
		}
		e.mu.Unlock()
		l.clockAt, l.hold = 2, nil
		l.clk.Advance(labDeadline - l.elapsed())
	case mTick:
		l.clk.Advance(2 * e.backoffCap)
	}
	l.consume()
	l.observe()
	if check {
		l.check()
	}
}

// observe records what the model needs of the engine's state: each
// batch's delivered result, which must never change, and the batches
// quarantined to the host path.
func (l *lab) observe() {
	l.e.mu.Lock()
	defer l.e.mu.Unlock()
	for bi, out := range l.j.outs {
		switch {
		case out == nil:
		case l.delivered[bi] == nil:
			l.delivered[bi] = out
		case l.delivered[bi] != out:
			l.fail("batch %d delivered twice", bi)
		}
	}
	for bi := range l.j.batches {
		l.fallback[bi] = l.fallback[bi] || l.j.batches[bi].fallback
	}
}

func (l *lab) elapsed() time.Duration { return l.clk.Now().Sub(time.Unix(0, 0)) }

// consume hands the stream to a Results call that waited for the job's
// landings once they have drained, then drains the stream, overwriting
// every result it receives.
func (l *lab) consume() {
	if l.opener != nil {
		l.e.mu.Lock()
		drained := l.j.landing == 0
		l.e.mu.Unlock()
		if !drained {
			return
		}
		select {
		case l.stream = <-l.opener:
			l.opener = nil
		case <-time.After(10 * time.Second):
			l.fail("Results still waits with no landing in flight")
		}
	}
	for l.stream != nil && !l.closed {
		select {
		case u, ok := <-l.stream:
			if !ok {
				l.closed = true
				return
			}
			for k := range u.Results {
				o := &u.Results[k]
				if l.streamed[o.GlobalID]++; l.streamed[o.GlobalID] > 1 {
					l.fail("comparison %d streamed twice", o.GlobalID)
				}
				if want := l.sc.ref.Results[o.GlobalID]; !o.Failed && *o != want {
					l.fail("comparison %d streamed as %+v, want %+v", o.GlobalID, *o, want)
				}
				o.Score, o.Failed = -999, false
			}
		default:
			return
		}
	}
}

// check tests the invariants that hold after every move.
func (l *lab) check() {
	e, j := l.e, l.j
	e.mu.Lock()
	defer e.mu.Unlock()
	var delivered, placeholders, fallback int
	var cells int64
	for _, out := range j.outs {
		if out == nil {
			continue
		}
		delivered++
		cells += out.Cells
		if !l.returned[out] {
			placeholders++
		}
	}
	for _, f := range l.fallback {
		if f {
			fallback++
		}
	}
	jobsDone := int64(0)
	if j.finished && j.err == nil {
		jobsDone = 1
	}
	st := e.stats
	if st.BatchesDone != int64(delivered) || st.CellsDone != cells || st.Hedges != int64(l.hedges) ||
		st.Retries != int64(j.retriesUsed) || st.Retries > int64(l.transients) ||
		st.Quarantined != int64(fallback+placeholders) || st.DeadlineExceeded != l.exceeded || st.JobsDone != jobsDone {
		l.fail("stats %+v: want %d batches, %d cells, %d hedges, %d retries (of %d transients), %d quarantined, %d exceeded, %d done",
			st, delivered, cells, l.hedges, j.retriesUsed, l.transients, fallback+placeholders, l.exceeded, jobsDone)
	}
	if j.landing != len(l.landers) {
		l.fail("landing = %d with %d landings in flight", j.landing, len(l.landers))
	}
	if l.closed && !j.finished {
		l.fail("the stream closed before the job settled")
	}
	if !j.finished {
		if j.alone != (l.hold != nil) {
			l.fail("alone = %v, want %v", j.alone, l.hold != nil)
		}
		return
	}
	if e.live != 0 || len(e.slots) != 0 || len(e.active) != 0 || j.asm != nil || j.bp != nil {
		l.fail("settled job left live=%d slots=%d active=%d asm=%v", e.live, len(e.slots), len(e.active), j.asm != nil)
	}
	if j.err != nil {
		if !(l.cancelled && errors.Is(j.err, context.Canceled) ||
			l.exceeded > 0 && l.sc.mode == DegradeFail && errors.Is(j.err, ErrDeadline)) {
			l.fail("the job failed: %v", j.err)
		}
		return
	}
	if l.reportValid {
		return
	}
	l.reportValid = true
	want := l.sc.ref
	if placeholders > 0 {
		rep := *want
		rep.Results = slices.Clone(want.Results)
		for bi, out := range j.outs {
			if !l.returned[out] {
				for _, o := range l.sc.bp.FailedBatchResult(bi).Out {
					rep.Results[o.GlobalID] = o
				}
			}
		}
		want = &rep
		if !reflect.DeepEqual(j.report.Results, want.Results) || j.report.PartialFailures == 0 {
			l.fail("the degraded report differs from driver.Run's with its placeholders in place")
		}
		return
	}
	if !reflect.DeepEqual(j.report, want) {
		l.fail("the report differs from driver.Run's")
	}
}

// terminal tests the state in which nothing more can happen: the job has
// settled, every execution returned, every landing ended, no caller waits
// and an opened stream carried each comparison exactly once.
func (l *lab) terminal() {
	if !l.j.finished {
		l.fail("nothing can happen and the job has not settled")
	}
	if len(l.landers) > 0 || l.opener != nil {
		l.fail("%d landings and a Results call (%v) are left waiting", len(l.landers), l.opener != nil)
	}
	for _, x := range l.execs {
		if !x.done {
			l.fail("an execution of batch %d never returned", x.bi)
		}
	}
	if l.opened && !l.closed {
		l.fail("the stream of a settled job is still open")
	}
	if l.opened && l.j.err == nil {
		for id, n := range l.streamed {
			if n != 1 {
				l.fail("comparison %d streamed %d times", id, n)
			}
		}
	}
}

// release ends a lab a search left behind: the job settles and every
// landing in flight ends, so a Results call waiting on them returns.
func (l *lab) release() {
	if l.opener == nil {
		return
	}
	l.e.mu.Lock()
	if !l.j.finished {
		l.e.finishLocked(l.j, nil, context.Canceled)
	}
	for _, ld := range l.landers {
		for l.e.landStep(l.j, ld) {
		}
	}
	l.landers = nil
	l.e.mu.Unlock()
	<-l.opener
}

// key is the lab's state: two labs with equal keys have the same futures.
func (l *lab) key() string {
	e, j := l.e, l.j
	e.mu.Lock()
	defer e.mu.Unlock()
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	st := e.stats
	k := []byte{bit(j.finished), bit(j.err != nil), byte(j.done), byte(j.nextIssue), byte(j.retriesUsed),
		byte(j.landing), bit(j.alone), bit(j.asm != nil), bit(j.streaming),
		byte(st.BatchesDone), byte(st.Retries), byte(st.Hedges), byte(st.Quarantined), byte(st.DeadlineExceeded), byte(st.JobsDone),
		bit(l.opener != nil), bit(l.opened), bit(l.closed), bit(l.cancelled), byte(l.transients), byte(l.hedges), byte(l.clockAt)}
	for _, bi := range j.ready {
		k = append(k, 'r', byte(bi))
	}
	for _, s := range j.batches {
		k = append(k, 'b', byte(s.phase), byte(s.attempts), byte(s.inflight), bit(s.hedged), bit(s.fallback))
	}
	for _, n := range l.streamed {
		k = append(k, byte(n))
	}
	// Executions and landings in flight as sets: the order they started in
	// does not change what can follow.
	var flight []uint64
	for _, x := range l.execs {
		if !x.done {
			flight = append(flight, uint64(x.bi)<<8|uint64(bit(x.host))<<1|uint64(bit(x.computed))<<2|uint64(bit(x == l.hold))<<3)
		}
	}
	for _, ld := range l.landers {
		flight = append(flight, 1<<40|uint64(ld.bi)<<8|uint64(ld.next)<<4|uint64(bit(ld.first))|
			uint64(bit(ld.sent))<<1|uint64(bit(ld.asm != nil))<<2|uint64(bit(ld.err != nil))<<3)
	}
	slices.Sort(flight)
	for _, f := range flight {
		k = binary.LittleEndian.AppendUint64(k, f)
	}
	return string(k)
}

// run drives the job to where nothing more can happen without the clock,
// the first move available at a time.
func (l *lab) run() {
	for {
		ms := slices.DeleteFunc(l.moves(labOpts{}), func(m move) bool { return m.kind >= mWindow })
		if len(ms) == 0 {
			return
		}
		l.apply(ms[0], true)
	}
}

// another registers a second job of the same plan on the lab's engine.
func (l *lab) another() *lab {
	e, bp := l.e, l.sc.bp
	j := &Job{
		eng: e, seq: 2, doneCh: make(chan struct{}), built: l.j.built, bp: bp,
		outs:       make([]*ipukernel.BatchResult, bp.Batches()),
		batches:    make([]batchState, bp.Batches()),
		firstIssue: bp.FirstIssue(),
	}
	e.mu.Lock()
	e.active = append(e.active, j)
	e.live++
	e.slots = make(chan struct{}, len(e.slots)+1)
	for range e.live {
		e.slots <- struct{}{}
	}
	e.mu.Unlock()
	n := *l
	n.j, n.execs, n.landers, n.log = j, nil, nil, nil
	n.stream, n.closed, n.hold, n.issuedAny = nil, false, nil, false
	n.streamed = make([]int, len(l.streamed))
	n.delivered = make([]*ipukernel.BatchResult, bp.Batches())
	n.fallback = make([]bool, bp.Batches())
	return &n
}

// explore visits every state the scenario's events can reach, in every
// order, checking each once; it returns how many it visited.
func explore(tb testing.TB, sc *labScenario, o labOpts) int {
	seen := map[string]bool{}
	var path []move
	replay := func() *lab {
		l := newLab(tb, sc)
		for _, m := range path {
			l.apply(m, false)
		}
		return l
	}
	var visit func(l *lab)
	visit = func(l *lab) {
		k := l.key()
		if seen[k] {
			l.release()
			return
		}
		seen[k] = true
		ms := l.moves(o)
		if len(ms) == 0 {
			l.terminal()
			return
		}
		for i, m := range ms {
			c := l
			if i < len(ms)-1 {
				c = replay()
			}
			c.apply(m, true)
			path = append(path, m)
			visit(c)
			path = path[:len(path)-1]
		}
	}
	l := newLab(tb, sc)
	l.check()
	visit(l)
	return len(seen)
}

// labPlan returns a dataset and configuration whose plan has nb batches.
func labPlan(t *testing.T, nb int) (*workload.Dataset, driver.Config) {
	t.Helper()
	d := readsData(t, 41, 6)
	cfg := testCfg(1)
	for cfg.MaxBatchJobs = 6; cfg.MaxBatchJobs > 0; cfg.MaxBatchJobs-- {
		if probePlan(t, d, cfg).Batches() == nb {
			return d, cfg
		}
	}
	t.Fatalf("no batch cap plans %d batches", nb)
	return nil, cfg
}

// TestLifecycleExplorer visits every interleaving of a job's events for
// plans of one to three batches: issue, compute and return of every
// execution, each landing's events, the stream opened at any point or
// never, the job cancelled at any point or never, one transient fault,
// and, under each DegradedMode, the hedge window (one hedge) and the
// deadline. After every event each batch is delivered at most once, each
// comparison streams at most once, as driver.Run computed it, and a
// consumer's overwrite never reaches the report; the Stats counters are
// exact, the landing count is the landings in flight, the first-batch
// hold stands exactly while the first execution computes, and the job
// settles once. Where nothing more can happen the job has settled, no
// landing and no Results call waits, and an opened stream carried every
// comparison exactly once; a completed job's report is driver.Run's.
// Some plan issues a batch other than 0 first, so the issue order is
// permuted under every DegradedMode.
func TestLifecycleExplorer(t *testing.T) {
	all := labOpts{open: true, cancel: true, fault: true}
	permuted := false
	for nb := 1; nb <= 3; nb++ {
		d, cfg := labPlan(t, nb)
		sc := newLabScenario(t, d, cfg)
		permuted = permuted || sc.bp.FirstIssue() != 0
		for _, deadline := range []bool{false, true} {
			for _, mode := range []DegradedMode{DegradeFail, DegradeFallback, DegradePartial} {
				if !deadline && mode != DegradeFail {
					continue
				}
				sc := *sc
				sc.deadline, sc.mode = deadline, mode
				name := fmt.Sprintf("batches=%d/deadline=%v/%v", nb, deadline, mode)
				t.Run(name, func(t *testing.T) {
					n := explore(t, &sc, all)
					t.Logf("%d states", n)
				})
			}
		}
	}
	if !permuted {
		t.Error("every plan issues batch 0 first: the explorer never permutes the issue order")
	}
}
