package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// These tests drive Job.step directly on a hand-built job: no executors,
// no sleeps. Backoff is an hour, so an armed timer can only be stopped,
// never fire into the test.

var (
	errTransient = &driver.FaultError{Kind: driver.FaultTransient}
	errPermanent = &driver.FaultError{Kind: driver.FaultPermanent}
)

// machinePlan is a real two-batch plan: step needs one only to size
// FailedBatchResult placeholders.
func machinePlan(t *testing.T) *driver.BatchPlan {
	t.Helper()
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 3
	bp := probePlan(t, readsData(t, 41, 6), cfg)
	if bp.Batches() != 2 {
		t.Fatalf("want a two-batch plan, got %d batches", bp.Batches())
	}
	return bp
}

// newMachine admits and registers one built job on an engine that has no
// executor pool, the state runJob leaves behind.
func newMachine(bp *driver.BatchPlan, mode DegradedMode) (*Engine, *Job) {
	e := &Engine{
		retryMax: 3, backoffBase: time.Hour, backoffCap: time.Hour,
		degraded: mode, live: 1, slots: make(chan struct{}, 1),
	}
	e.cond = sync.NewCond(&e.mu)
	e.slots <- struct{}{}
	j := &Job{
		eng: e, seq: 1, doneCh: make(chan struct{}), bp: bp,
		outs:    make([]*ipukernel.BatchResult, bp.Batches()),
		batches: make([]batchState, bp.Batches()),
	}
	e.active = []*Job{j}
	return e, j
}

// snap is everything step may touch for batch 0, comparable with ==.
type snap struct {
	phase                  batchPhase
	hedged, fallback       bool
	attempts, inflight     int32
	timer                  bool
	ready                  string
	issued, done           int
	retriesUsed, nextIssue int
	delivered, finished    bool
	retries, hedges        int64
	quarantined, batches   int64
}

func snapshot(e *Engine, j *Job) snap {
	s := snap{
		ready: fmt.Sprint(j.ready), issued: j.issued, done: j.done,
		retriesUsed: j.retriesUsed, nextIssue: j.nextIssue,
		delivered: j.outs[0] != nil, finished: j.finished,
		retries: e.stats.Retries, hedges: e.stats.Hedges,
		quarantined: e.stats.Quarantined, batches: e.stats.BatchesDone,
	}
	if !j.finished {
		b := j.batches[0]
		s.phase, s.hedged, s.fallback = b.phase, b.hedged, b.fallback
		s.attempts, s.inflight, s.timer = b.attempts, b.inflight, b.timer != nil
	}
	return s
}

// TestBatchTransitions: every (phase, event) pair of the batch state
// machine. Each row puts batch 0 in a phase the way the engine would have
// left it, sends one event, and states what changes; a row with no change
// stated asserts the event was a no-op down to every counter. Batch 1
// stays pending throughout, so nothing here completes the job.
func TestBatchTransitions(t *testing.T) {
	bp := machinePlan(t)
	ok := &ipukernel.BatchResult{Out: []ipukernel.AlignOut{{GlobalID: 7}}}
	// The phases, as set-ups. stale is a quarantined batch queued for the
	// host path while its fleet copy still runs; twin a hedged pair.
	setups := map[string]func(j *Job){
		"pending": func(j *Job) {},
		"ready": func(j *Job) {
			j.batches[0] = batchState{phase: phaseReady, attempts: 1}
			j.ready, j.nextIssue, j.issued = []int{0}, 1, 1
		},
		"stale": func(j *Job) {
			j.batches[0] = batchState{phase: phaseReady, attempts: 1, inflight: 1, fallback: true}
			j.ready, j.nextIssue, j.issued = []int{0}, 1, 1
		},
		"running": func(j *Job) {
			j.batches[0] = batchState{phase: phaseRunning, attempts: 1, inflight: 1}
			j.nextIssue, j.issued = 1, 1
		},
		"twin": func(j *Job) {
			j.batches[0] = batchState{phase: phaseRunning, attempts: 2, inflight: 2, hedged: true}
			j.nextIssue, j.issued = 1, 2
		},
		"spent": func(j *Job) { // running, its retries used up
			j.batches[0] = batchState{phase: phaseRunning, attempts: 4, inflight: 1}
			j.nextIssue, j.issued, j.retriesUsed = 1, 4, 3
		},
		"backoff": func(j *Job) {
			j.batches[0] = batchState{phase: phaseBackoff, attempts: 1,
				timer: time.AfterFunc(time.Hour, func() {})}
			j.nextIssue, j.issued, j.retriesUsed = 1, 1, 1
		},
		"delivered": func(j *Job) {
			j.batches[0] = batchState{phase: phaseDelivered, attempts: 1}
			j.outs[0], j.nextIssue, j.issued, j.done = ok, 1, 1, 1
		},
	}
	issued := func(s *snap) { s.phase = phaseRunning; s.attempts++; s.inflight++; s.issued++ }
	recorded := func(s *snap) {
		s.phase, s.delivered, s.timer, s.ready = phaseDelivered, true, false, "[]"
		s.done++
		s.batches++
	}
	placeholders := func(s *snap) { recorded(s); s.quarantined++ }
	queued := func(s *snap) { s.phase, s.ready, s.timer = phaseReady, "[0]", false }
	quarantined := func(s *snap) { queued(s); s.fallback = true; s.quarantined++ }
	returned := func(s *snap) { s.inflight-- }
	jobFailed := func(s *snap) { // settled: the lifecycle records are gone
		*s = snap{finished: true, ready: "[]", issued: s.issued, retriesUsed: s.retriesUsed, nextIssue: s.nextIssue}
	}
	rows := []struct {
		from string
		ev   batchEvent
		err  error
		mode DegradedMode
		want func(s *snap) // nil: a no-op
		out  string        // what step hands back: "", "ok" or "failed"
	}{
		{from: "pending", ev: evIssue, want: func(s *snap) { issued(s); s.nextIssue = 1 }},
		{from: "pending", ev: evHedge},
		{from: "pending", ev: evReturn},
		{from: "pending", ev: evReturn, err: errTransient},
		{from: "pending", ev: evReturnHost, err: errPermanent},
		{from: "pending", ev: evDeliver, want: func(s *snap) { recorded(s); s.nextIssue = 1 }, out: "ok"},
		{from: "pending", ev: evTimer},
		{from: "pending", ev: evQuarantine, want: func(s *snap) { quarantined(s); s.nextIssue = 1 }},
		{from: "pending", ev: evDeadlinePartial, want: func(s *snap) { placeholders(s); s.nextIssue = 1 }, out: "failed"},
		{from: "pending", ev: evSettle},

		{from: "ready", ev: evIssue, want: func(s *snap) { issued(s); s.ready = "[]" }},
		{from: "ready", ev: evHedge},
		{from: "ready", ev: evReturn},
		{from: "ready", ev: evReturn, err: errTransient},
		{from: "ready", ev: evReturnHost, err: errPermanent},
		{from: "ready", ev: evDeliver, want: recorded, out: "ok"},
		{from: "ready", ev: evTimer}, // enqueue while ready
		{from: "ready", ev: evQuarantine, want: func(s *snap) { s.fallback = true; s.quarantined++ }},
		{from: "ready", ev: evDeadlinePartial, want: placeholders, out: "failed"},
		{from: "ready", ev: evSettle},

		// The stale fleet copy of a quarantined, queued batch: its result
		// still wins, its failure is dropped without charging a retry.
		{from: "stale", ev: evIssue, want: func(s *snap) { issued(s); s.ready = "[]" }},
		{from: "stale", ev: evReturn, want: returned, out: "ok"},
		{from: "stale", ev: evReturn, err: errTransient, mode: DegradeFallback, want: returned},
		{from: "stale", ev: evReturn, err: errPermanent, mode: DegradeFallback, want: returned},
		{from: "stale", ev: evDeliver, want: recorded, out: "ok"},
		{from: "stale", ev: evQuarantine},

		{from: "running", ev: evIssue},
		{from: "running", ev: evHedge, want: func(s *snap) { issued(s); s.hedged = true; s.hedges++ }},
		{from: "running", ev: evReturn, want: returned, out: "ok"},
		{from: "running", ev: evReturnHost, want: returned, out: "ok"},
		{from: "running", ev: evReturn, err: errTransient, want: func(s *snap) {
			returned(s)
			s.phase, s.timer = phaseBackoff, true
			s.retriesUsed++
			s.retries++
		}},
		{from: "running", ev: evReturn, err: errPermanent, want: jobFailed},
		{from: "running", ev: evReturn, err: errors.New("not a fault"), want: jobFailed},
		{from: "running", ev: evReturn, err: errPermanent, mode: DegradeFallback,
			want: func(s *snap) { returned(s); quarantined(s) }},
		{from: "running", ev: evReturn, err: errPermanent, mode: DegradePartial,
			want: func(s *snap) { returned(s); s.quarantined++ }, out: "failed"},
		{from: "running", ev: evReturnHost, err: errTransient, mode: DegradeFallback, want: returned, out: "failed"},
		{from: "running", ev: evDeliver, want: recorded, out: "ok"},
		{from: "running", ev: evTimer},
		{from: "running", ev: evQuarantine, want: quarantined},
		{from: "running", ev: evDeadlinePartial, want: placeholders, out: "failed"},
		{from: "running", ev: evSettle},

		// A hedged pair: hedged once only, and the first copy's failure
		// defers to the twin still running.
		{from: "twin", ev: evHedge},
		{from: "twin", ev: evReturn, err: errTransient, want: returned},
		{from: "twin", ev: evReturn, err: errPermanent, want: returned},
		{from: "twin", ev: evReturn, want: returned, out: "ok"},

		// Retries spent (attempts past retryMax): a transient failure
		// degrades like a permanent one.
		{from: "spent", ev: evReturn, err: errTransient, want: jobFailed},
		{from: "spent", ev: evReturn, err: errTransient, mode: DegradeFallback,
			want: func(s *snap) { returned(s); quarantined(s) }},
		{from: "spent", ev: evReturn, err: errTransient, mode: DegradePartial,
			want: func(s *snap) { returned(s); s.quarantined++ }, out: "failed"},

		{from: "backoff", ev: evIssue},
		{from: "backoff", ev: evHedge},
		{from: "backoff", ev: evReturn},
		{from: "backoff", ev: evReturn, err: errTransient},
		{from: "backoff", ev: evReturnHost, err: errPermanent},
		{from: "backoff", ev: evDeliver, want: recorded, out: "ok"},
		{from: "backoff", ev: evTimer, want: queued},
		{from: "backoff", ev: evQuarantine, want: quarantined},
		{from: "backoff", ev: evDeadlinePartial, want: placeholders, out: "failed"},
		{from: "backoff", ev: evSettle, want: func(s *snap) { s.timer = false }},

		{from: "delivered", ev: evIssue},
		{from: "delivered", ev: evHedge},
		{from: "delivered", ev: evReturn},
		{from: "delivered", ev: evReturn, err: errTransient},
		{from: "delivered", ev: evReturnHost, err: errPermanent},
		{from: "delivered", ev: evDeliver},
		{from: "delivered", ev: evTimer},
		{from: "delivered", ev: evQuarantine},
		{from: "delivered", ev: evDeadlinePartial},
		{from: "delivered", ev: evSettle},
	}
	covered := map[[2]int]bool{}
	for _, r := range rows {
		name := fmt.Sprintf("%s/ev%d/%v/%v", r.from, r.ev, r.err, r.mode)
		e, j := newMachine(bp, r.mode)
		setups[r.from](j)
		covered[[2]int{int(j.batches[0].phase), int(r.ev)}] = true
		timer := j.batches[0].timer
		want := snapshot(e, j)
		if r.want != nil {
			r.want(&want)
		}
		in := ok
		if r.err != nil {
			in = nil
		}
		e.mu.Lock()
		out := j.step(0, r.ev, in, r.err)
		if got := snapshot(e, j); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		switch {
		case r.out == "" && out != nil:
			t.Errorf("%s: step handed back a result, want nil", name)
		case r.out == "ok" && out != ok:
			t.Errorf("%s: step handed back %v, want the execution's result", name, out)
		case r.out == "failed" && !reflect.DeepEqual(out, bp.FailedBatchResult(0)):
			t.Errorf("%s: step handed back %v, want Failed placeholders", name, out)
		}
		if timer != nil && !want.timer && timer.Stop() {
			t.Errorf("%s: the backoff timer was dropped still armed", name)
		}
		// Settle: stops whatever timer the row armed, empties the
		// scheduler's list, and turns every event into a no-op — with the
		// lifecycle records released, so a late step must not index them.
		if !j.finished {
			e.finishLocked(j, nil, errors.New("test over"))
		}
		if len(e.active) != 0 || e.live != 0 || len(e.slots) != 0 || j.batches != nil {
			t.Errorf("%s: settlement left active=%d live=%d slots=%d batches=%v",
				name, len(e.active), e.live, len(e.slots), j.batches)
		}
		for ev := evIssue; ev <= evSettle; ev++ {
			if j.step(0, ev, ok, nil) != nil {
				t.Errorf("%s: ev%d after settlement handed back a result", name, ev)
			}
		}
		e.mu.Unlock()
	}
	for p := phasePending; p <= phaseDelivered; p++ {
		for ev := evIssue; ev <= evSettle; ev++ {
			if !covered[[2]int{int(p), int(ev)}] {
				t.Errorf("no row for phase %d, event %d", p, ev)
			}
		}
	}
}

// TestBatchTransitionsStaleFleetFailure: after the deadline quarantines a
// batch under DegradeFallback, a fleet copy still running from before must
// not be able to charge a retry or queue a second host execution when it
// fails. On the parent commit the same sequence — deadlineExpired's
// quarantine, then deliver's failure path with inflight == 0 and
// wasFallback == false — reached failedLocked's retry branch: retriesUsed
// and Stats.Retries went to 1 and a backoff timer was armed whose
// callback, finding queued[bi] false and outs[bi] nil once the host copy
// had been picked, appended the batch to retryq a second time.
func TestBatchTransitionsStaleFleetFailure(t *testing.T) {
	bp := machinePlan(t)
	e, j := newMachine(bp, DegradeFallback)
	e.mu.Lock()
	defer e.mu.Unlock()
	b := &j.batches[0]
	j.step(0, evIssue, nil, nil)      // the fleet copy starts
	j.step(0, evQuarantine, nil, nil) // the deadline expires
	if b.phase != phaseReady || !b.fallback || e.stats.Quarantined != 1 {
		t.Fatalf("quarantine left %+v, Quarantined = %d", *b, e.stats.Quarantined)
	}
	// The fleet copy fails before the host copy is picked.
	if out := j.step(0, evReturn, nil, errTransient); out != nil {
		t.Fatalf("stale failure handed back %v", out)
	}
	if e.stats.Retries != 0 || j.retriesUsed != 0 || b.timer != nil {
		t.Fatalf("stale failure charged a retry: Retries = %d, retriesUsed = %d, timer armed = %v",
			e.stats.Retries, j.retriesUsed, b.timer != nil)
	}
	if fmt.Sprint(j.ready) != "[0]" || b.phase != phaseReady {
		t.Fatalf("ready = %v, phase %d: want the one host execution still queued", j.ready, b.phase)
	}
	// The host copy is picked; the parent's timer fired about now.
	j.step(0, evIssue, nil, nil)
	j.step(0, evTimer, nil, nil)
	if len(j.ready) != 0 || b.phase != phaseRunning || b.inflight != 1 {
		t.Fatalf("a second host execution was queued: ready = %v, %+v", j.ready, *b)
	}
	// The one case a stale failure queues anything: the host execution
	// failed first and deferred to the fleet copy still running, so when
	// that fails too nothing else would ever decide the batch. Still no
	// retry charged, and the re-run host execution completes the batch
	// with placeholders.
	b = &j.batches[1]
	hostDown := errors.New("host path down")
	j.step(1, evIssue, nil, nil)
	j.step(1, evQuarantine, nil, nil)
	j.step(1, evIssue, nil, nil)
	if out := j.step(1, evReturnHost, nil, hostDown); out != nil || b.phase != phaseRunning || b.inflight != 1 {
		t.Fatalf("host failure beside a running fleet copy handed back %v, left %+v", out, *b)
	}
	if out := j.step(1, evReturn, nil, errTransient); out != nil || b.phase != phaseReady || fmt.Sprint(j.ready) != "[1]" {
		t.Fatalf("last copy's failure handed back %v, left %+v, ready = %v", out, *b, j.ready)
	}
	j.step(1, evIssue, nil, nil)
	out := j.step(1, evReturnHost, nil, hostDown)
	if !reflect.DeepEqual(out, bp.FailedBatchResult(1)) || j.step(1, evDeliver, out, nil) != out || j.outs[1] != out {
		t.Fatalf("re-run host failure handed back %v, outs[1] = %v", out, j.outs[1])
	}
	if e.stats.Retries != 0 || j.retriesUsed != 0 || e.stats.Quarantined != 2 {
		t.Fatalf("Retries = %d, retriesUsed = %d, Quarantined = %d, want 0, 0, 2",
			e.stats.Retries, j.retriesUsed, e.stats.Quarantined)
	}
	e.finishLocked(j, nil, errors.New("test over"))
}

// tick returns once the wall clock has moved, so two start stamps taken
// either side of it differ.
func tick() {
	for t0 := time.Now().UnixNano(); time.Now().UnixNano() == t0; {
	}
}

// TestBatchTransitionsHedgeStart: the hedge scan duplicates the batch
// whose current execution has run longest. Batch 0 starts first, fails
// and is retried after batch 1 started, so batch 1 is the straggler. The
// parent commit stamped startNS only while it was zero and never cleared
// it, so batch 0 kept its first attempt's stamp and was hedged instead.
func TestBatchTransitionsHedgeStart(t *testing.T) {
	bp := machinePlan(t)
	e, j := newMachine(bp, DegradeFail)
	e.deadline, e.hedgeWindow = time.Hour, time.Hour // the window is open from admission
	j.deadline = time.Now().Add(time.Hour)
	e.mu.Lock()
	defer e.mu.Unlock()
	pick := func(want int) {
		t.Helper()
		if pj, bi := e.pickLocked(); pj != j || bi != want {
			t.Fatalf("pickLocked = (%v, %d), want batch %d", pj != nil, bi, want)
		}
		tick()
	}
	pick(0)
	pick(1)
	j.step(0, evReturn, nil, errTransient) // → backoff
	j.step(0, evTimer, nil, nil)           // → ready
	pick(0)                                // the retry: batch 0's clock restarts
	if e.stats.Hedges != 0 {
		t.Fatalf("Hedges = %d before anything is idle", e.stats.Hedges)
	}
	if j.batches[0].startNS <= j.batches[1].startNS {
		t.Fatalf("batch 0 restarted at %d, not after batch 1's start %d",
			j.batches[0].startNS, j.batches[1].startNS)
	}
	pick(1) // nothing left to issue: the scan hedges the older execution
	if e.stats.Hedges != 1 || !j.batches[1].hedged || j.batches[0].hedged {
		t.Fatalf("Hedges = %d, hedged = %v/%v: want batch 1 alone duplicated",
			e.stats.Hedges, j.batches[0].hedged, j.batches[1].hedged)
	}
	pick(0) // then the other one, once
	if pj, _ := e.pickLocked(); pj != nil {
		t.Fatal("a batch was hedged twice")
	}
	e.finishLocked(j, nil, errors.New("test over"))
}
