package serviceclient

import (
	"sync"

	"github.com/sram-align/xdropipu/internal/engine"
)

// updateQueueCap is the Results channel's capacity. A cache-served job
// of up to 8 192 comparisons (16 chunks of the engine's 512) fits in it
// whole; updates past it wait in the queue's overflow.
const updateQueueCap = 16

// updateQueue is a job's Results stream: a small channel plus an
// ordered overflow, so the stream reader never blocks on a consumer and
// a stream of many chunks costs a channel of updateQueueCap, not one of
// the job's size. The reader sends into the channel while it has room
// and nothing waits in the overflow; otherwise it appends to the
// overflow, which a forwarder goroutine drains into the channel in
// order. The forwarder runs only once Results has been called — a
// caller that only Waits starts none, and the overflow goes with the
// job — and it ends, closing the channel if the job has settled, when
// the overflow is empty. A stream's chunk count is at most its
// comparison count (every chunk carries a result, each result arrives
// once), which bounds the overflow.
type updateQueue struct {
	ch chan engine.Update

	mu      sync.Mutex
	spill   []engine.Update // follows everything in ch
	taken   bool            // Results was called: a forwarder may run
	running bool            // a forwarder owns the head of the stream
	closed  bool            // the job settled: ch closes once spill is empty
}

func newUpdateQueue() *updateQueue {
	return &updateQueue{ch: make(chan engine.Update, updateQueueCap)}
}

// push delivers u after every update pushed before it, without blocking.
func (q *updateQueue) push(u engine.Update) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.running && len(q.spill) == 0 {
		select {
		case q.ch <- u:
			return
		default:
		}
	}
	q.spill = append(q.spill, u)
	q.startLocked()
}

// results marks the stream as taken and returns its channel.
func (q *updateQueue) results() <-chan engine.Update {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.taken = true
	q.startLocked()
	return q.ch
}

// close ends the stream: the channel closes after the last update.
func (q *updateQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if !q.running && len(q.spill) == 0 {
		close(q.ch)
	}
}

// startLocked starts a forwarder when the overflow holds updates, the
// stream is taken and none runs.
func (q *updateQueue) startLocked() {
	if q.taken && !q.running && len(q.spill) > 0 {
		q.running = true
		go q.forward()
	}
}

// forward moves the overflow into the channel, blocking on the consumer.
func (q *updateQueue) forward() {
	for {
		q.mu.Lock()
		if len(q.spill) == 0 {
			q.running = false
			if q.closed {
				close(q.ch)
			}
			q.mu.Unlock()
			return
		}
		u := q.spill[0]
		q.spill[0] = engine.Update{}
		q.spill = q.spill[1:]
		q.mu.Unlock()
		q.ch <- u
	}
}
