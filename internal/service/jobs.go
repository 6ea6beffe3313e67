// Per-job server state: each submission is pumped once from its engine
// stream into a bounded window of pre-encoded NDJSON chunk lines; every
// attached HTTP stream (the submitting POST or a resuming GET) is a
// reader over that window with its own cursor. The window is the resume
// contract — a reconnecting client replays delivered batches from its
// cursor without the engine re-executing anything — and its bound is the
// memory contract: a job retains at most WindowChunks encoded batches.
// The engine job (every result with its CIGAR, the report) belongs to the
// pump alone and is never stored here, so a settled job that stays
// addressable holds its window and final line, nothing more — and
// windowBytes says how much that is, which Server.retainLocked budgets.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service/wire"
)

type jobState struct {
	id          string
	tenant      string
	shard       int
	cancelJob   context.CancelFunc
	linger      time.Duration
	comparisons int
	windowMax   int
	// arrived is the request's arrival; decode is the service's first
	// phase, from it to the job's Submit.
	arrived time.Time
	decode  time.Duration
	// phases makes the final record carry the job's phases. The request
	// asks for them (?phases=1): their widths vary from run to run, so
	// a stream without them is the same bytes for the same job.
	phases bool

	// scratch is the pump's encode buffer, taken from lineScratch at the
	// job's first chunk and handed back when the job settles.
	scratch *[]byte

	mu          sync.Mutex
	batches     int      // schedule size, learned from the first update
	window      [][]byte // encoded chunk lines, window[i] has seq firstSeq+i
	windowBytes int      // total length of window's lines plus final
	firstSeq    int
	nextSeq     int
	done        bool
	cancelled   bool // a client has cancelled the job
	err         error
	final       []byte // encoded final line
	attached    int
	lingerT     clock.Timer
	notify      chan struct{} // closed and replaced on every append/finish
	// fin is the final record final encodes: a late FirstWrite encodes it
	// again.
	fin wire.Final
	// written is set, and firstWrite stamped, once a stream has flushed
	// one of the job's chunk lines.
	written    bool
	firstWrite time.Duration
}

func newJobState(id, tenant string, shard int, cancel context.CancelFunc,
	linger time.Duration, comparisons, windowMax int, arrived time.Time) *jobState {
	return &jobState{
		id: id, tenant: tenant, shard: shard, cancelJob: cancel,
		linger: linger, comparisons: comparisons, windowMax: windowMax,
		arrived: arrived, notify: make(chan struct{}),
	}
}

// cancel tears the job down (idempotent): the engine drops its queued
// batches and the pump settles it with context.Canceled.
func (js *jobState) cancel() { js.cancelJob() }

// clientCancel is a client's cancel of the job: it tears the job down and
// reports whether this is the first such cancel to reach the job before
// it settled — the one event the tenant's Cancelled counter records.
func (js *jobState) clientCancel() (first bool) {
	js.mu.Lock()
	first = !js.done && !js.cancelled
	js.cancelled = true
	js.mu.Unlock()
	js.cancel()
	return first
}

// lineScratch recycles the pumps' encode buffers across jobs. A job's
// lines come in completion order, not by size, so a buffer of the job's
// own would grow again at each line longer than any before it.
var lineScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendUpdate encodes one engine update as the next chunk line and
// appends it to the window, trimming the front past the bound. The pump
// is the only appender, so encoding happens outside the lock — into a
// scratch buffer, of which the window keeps an exact-length copy: a line
// lives as long as the job is addressable, append's growth slack would
// live as long.
func (js *jobState) appendUpdate(u engine.Update) {
	if js.scratch == nil {
		js.scratch = lineScratch.Get().(*[]byte)
	}
	buf := wire.AppendChunkLine((*js.scratch)[:0], js.nextSeq, u.Batch, u.Batches, u.Seconds, u.Results)
	*js.scratch = buf
	line := bytes.Clone(buf)
	js.mu.Lock()
	if js.batches == 0 {
		js.batches = u.Batches
	}
	js.window = append(js.window, line)
	js.windowBytes += len(line)
	js.nextSeq++
	if drop := len(js.window) - js.windowMax; drop > 0 {
		for _, old := range js.window[:drop] {
			js.windowBytes -= len(old)
		}
		js.window = append([][]byte(nil), js.window[drop:]...)
		js.firstSeq += drop
	}
	close(js.notify)
	js.notify = make(chan struct{})
	js.mu.Unlock()
}

// finish records the job's terminal outcome and encodes the final line,
// with phases if the request asked for them. It returns the bytes the
// settled job retains. The record keeps a copy of the report's summary,
// not the report: the results go with the engine job.
func (js *jobState) finish(rep *driver.Report, err error, phases engine.Phases) int {
	if js.scratch != nil {
		lineScratch.Put(js.scratch)
		js.scratch = nil
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.phases {
		js.fin.Phases = phases
	}
	if err != nil {
		js.fin.Error = err.Error()
	} else {
		sum := rep.Summary
		js.fin.Report = &sum
	}
	js.done = true
	js.err = err
	js.encodeFinalLocked()
	if js.lingerT != nil {
		js.lingerT.Stop()
		js.lingerT = nil
	}
	close(js.notify)
	js.notify = make(chan struct{})
	return js.windowBytes
}

// encodeFinalLocked encodes the final line from fin, with FirstWrite in
// the phases once it is stamped.
func (js *jobState) encodeFinalLocked() {
	fin := js.fin
	if js.phases && js.written {
		fin.Phases.FirstWrite = js.firstWrite
	}
	line, _ := json.Marshal(wire.Envelope{Final: &fin})
	line = append(line, '\n')
	js.windowBytes += len(line) - len(js.final)
	js.final = line
}

// wrote records that a stream has flushed one of the job's chunk lines at
// now. The first call stamps FirstWrite and returns it; a final line
// encoded before then is encoded again with it (retention keeps the size
// it charged at settlement, a few bytes short of the new line's).
func (js *jobState) wrote(now time.Time) (firstWrite time.Duration, first bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.written {
		return 0, false
	}
	js.written, js.firstWrite = true, now.Sub(js.arrived)
	if js.done && js.phases {
		js.encodeFinalLocked()
	}
	return js.firstWrite, true
}

// finalLine returns the encoded final line; the job has settled.
func (js *jobState) finalLine() []byte {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.final
}

// attach registers a stream reader and disarms any pending linger
// cancellation.
func (js *jobState) attach() {
	js.mu.Lock()
	js.attached++
	if js.lingerT != nil {
		js.lingerT.Stop()
		js.lingerT = nil
	}
	js.mu.Unlock()
}

// collect returns the encoded chunks at and after cursor, whether they
// are the last (the job settled and they drain the cursor: the final line
// follows), and the channel that signals the next append. gone reports a
// cursor older than the window.
func (js *jobState) collect(cursor int) (lines [][]byte, last bool, notify chan struct{}, gone bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if cursor < js.firstSeq {
		return nil, false, nil, true
	}
	if idx := cursor - js.firstSeq; idx < len(js.window) {
		lines = js.window[idx:]
	}
	last = js.done && cursor+len(lines) == js.nextSeq
	return lines, last, js.notify, false
}

// cursorBounds returns the oldest cursor the window can still replay and
// the newest a client can hold: the seq of the next chunk to be produced.
func (js *jobState) cursorBounds() (first, next int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.firstSeq, js.nextSeq
}

// headerSnapshot builds the stream-opening header for a reader starting
// at from.
func (js *jobState) headerSnapshot(from int) *wire.Header {
	js.mu.Lock()
	defer js.mu.Unlock()
	return &wire.Header{
		Job: js.id, Comparisons: js.comparisons,
		Batches: js.batches, Shard: js.shard, From: from,
	}
}

// JobStatus is the GET /v1/jobs/{id} reply.
type JobStatus struct {
	Job         string `json:"job"`
	Tenant      string `json:"tenant"`
	Shard       int    `json:"shard"`
	Comparisons int    `json:"comparisons"`
	Batches     int    `json:"batches"`
	// Chunks counts delivered result chunks; FirstRetained is the oldest
	// resume cursor still in the replay window.
	Chunks        int    `json:"chunks"`
	FirstRetained int    `json:"firstRetained"`
	Done          bool   `json:"done"`
	Error         string `json:"error,omitempty"`
	// Attached counts currently-connected result streams.
	Attached int `json:"attached"`
}

func (js *jobState) status() JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	st := JobStatus{
		Job: js.id, Tenant: js.tenant, Shard: js.shard,
		Comparisons: js.comparisons, Batches: js.batches,
		Chunks: js.nextSeq, FirstRetained: js.firstSeq,
		Done: js.done, Attached: js.attached,
	}
	if js.err != nil {
		st.Error = js.err.Error()
	}
	return st
}
