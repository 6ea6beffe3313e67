// Package serviceclient is the Go client for the alignment service: it
// preserves the in-process engine's submit/stream/join contract across
// the wire. Submit posts an encoded workload and returns a RemoteJob
// whose Results channel streams engine.Update values exactly as a local
// Job would deliver them, and whose Wait returns a *driver.Report
// assembled from the stream — bit-identical to Engine.Submit on the same
// workload, because every AlignOut and report field round-trips the
// NDJSON wire format exactly.
//
// The client owns the transport failure domain and nothing more: it
// retries refused submissions (429/503 with Retry-After, connection
// errors) with jittered exponential backoff, and resumes a dropped
// result stream from its cursor via GET /v1/jobs/{id}/results?from=N —
// the server replays delivered batches from its bounded window, so
// nothing re-executes. Engine-level fault tolerance (batch retry,
// hedging, degradation) stays server-side; a job error the engine
// reports travels back in the stream's final record and is returned from
// Wait verbatim, never retried here. One gap is inherent to the wire:
// if the POST succeeds server-side but the response is lost before the
// header arrives, the orphaned job is torn down by the server's linger
// cancellation or TTL, not by the client.
package serviceclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Client talks to one alignment service.
type Client struct {
	base    string // e.g. "http://127.0.0.1:8080", no trailing slash
	hc      *http.Client
	tenant  string
	linger  time.Duration
	phases  bool // ask for the final record's phases block
	retries int  // transport attempts per request (submit and resume alike)
	backoff time.Duration
	cap     time.Duration
	clk     clock.Clock // the backoff waits run on it
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, HTTP/2, test
// instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTenant sets the X-Tenant identity submissions carry into the
// service's fair-share admission.
func WithTenant(name string) Option { return func(c *Client) { c.tenant = name } }

// WithStreamLinger asks the server to keep a disconnected job alive that
// long (X-Linger, capped server-side) so the client can resume instead
// of losing the job to disconnect-cancellation.
func WithStreamLinger(d time.Duration) Option { return func(c *Client) { c.linger = d } }

// WithPhases asks the server to write where each job's wall time went
// into its final record (?phases=1), for RemoteJob.Phases.
func WithPhases() Option { return func(c *Client) { c.phases = true } }

// WithTransportRetry sets how many attempts each transport operation
// gets (default 4). This layer retries refusals and broken connections
// only — job-level failures come back through Wait untouched.
func WithTransportRetry(attempts int) Option {
	return func(c *Client) {
		if attempts > 0 {
			c.retries = attempts
		}
	}
}

// WithTransportBackoff sets the retry backoff's base and cap (defaults
// 100ms and 2s). The wait doubles per attempt with full jitter; a
// server-supplied Retry-After overrides the computed wait.
func WithTransportBackoff(base, cap time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoff = base
		}
		if cap > 0 {
			c.cap = cap
		}
	}
}

// New builds a client for the service at base (scheme://host[:port]).
func New(base string, opts ...Option) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	c := &Client{
		base: base, hc: http.DefaultClient,
		retries: 4, backoff: 100 * time.Millisecond, cap: 2 * time.Second,
		clk: clock.Real,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// RemoteJob is the wire analogue of engine.Job: a submitted workload's
// handle with the same stream/join surface.
type RemoteJob struct {
	// ID addresses the job on the server (status, resume, cancel).
	ID string
	// Comparisons is the submitted comparison count; Batches the
	// schedule's batch total (0 until the first header on cache-only
	// deliveries that never learned it).
	Comparisons int
	Batches     int

	c       *Client
	updates *updateQueue
	done    chan struct{}
	rep     *driver.Report
	err     error
	phases  *engine.Phases // the final record's, nil until it arrives
}

// Results streams per-batch updates in delivery order, exactly as the
// in-process Job would. The channel closes after the last update once the
// job has settled. The stream reader never waits for the consumer: what
// the channel cannot hold waits in an ordered overflow (updateQueue), so
// an unread channel never blocks assembly and Wait stays reachable. A
// caller that takes the channel drains it: the goroutine that feeds it
// from the overflow ends only when the overflow is empty.
func (j *RemoteJob) Results() <-chan engine.Update { return j.updates.results() }

// Wait blocks until the job settles and returns the assembled report —
// bit-identical to the in-process engine's — or the job's terminal
// error. ctx bounds the wait only.
func (j *RemoteJob) Wait(ctx context.Context) (*driver.Report, error) {
	select {
	case <-j.done:
		return j.rep, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Phases returns where the job's wall time went, as the server's final
// record gave it: the engine's phases with the service's decode and
// stream segments. It is zero unless the client was built WithPhases,
// until the job settles, and when the stream ended without a final
// record.
func (j *RemoteJob) Phases() engine.Phases {
	select {
	case <-j.done:
		if j.phases != nil {
			return *j.phases
		}
	default:
	}
	return engine.Phases{}
}

// Cancel asks the server to tear the job down. The stream then settles
// with the job's cancellation error.
func (j *RemoteJob) Cancel(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		j.c.base+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		return err
	}
	resp, err := j.c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("serviceclient: cancel %s: %s", j.ID, resp.Status)
	}
	return nil
}

// Submit encodes the dataset once and posts it, retrying transport
// refusals, then hands the response stream to a reader goroutine and
// returns the job handle as soon as the server's header arrives. The
// body is the encoder's parts written in turn: the arena's slabs go to
// the connection from the dataset's own bytes, never copied into a
// payload.
func (c *Client) Submit(ctx context.Context, d *workload.Dataset) (*RemoteJob, error) {
	parts, err := wire.EncodeDatasetParts(d)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	for _, p := range parts {
		size += int64(len(p))
	}
	// Each attempt, and each rewind the transport asks GetBody for, reads
	// a net.Buffers of its own: reading consumes its slice headers.
	body := func() (io.ReadCloser, error) {
		b := net.Buffers(slices.Clone(parts))
		return io.NopCloser(&b), nil
	}
	query := ""
	if c.phases {
		query = "?phases=1"
	}
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		b, _ := body()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs"+query, b)
		if err != nil {
			return nil, err
		}
		req.ContentLength, req.GetBody = size, body
		req.Header.Set("Content-Type", wire.ContentTypeDataset)
		if c.tenant != "" {
			req.Header.Set("X-Tenant", c.tenant)
		}
		if c.linger > 0 {
			req.Header.Set("X-Linger", c.linger.String())
		}
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	return c.openStream(ctx, resp, len(d.Comparisons))
}

// openStream reads the header off a fresh result stream and starts the
// reader goroutine that assembles the job. The header must announce the
// comparisons submitted: the client sizes its result array from that
// count.
func (c *Client) openStream(ctx context.Context, resp *http.Response, comparisons int) (*RemoteJob, error) {
	br := bufio.NewReader(resp.Body)
	hdr, err := readHeader(br, comparisons)
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	j := &RemoteJob{
		ID: hdr.Job, Comparisons: hdr.Comparisons, Batches: hdr.Batches,
		c: c, done: make(chan struct{}), updates: newUpdateQueue(),
	}
	go j.run(ctx, resp.Body, br, hdr.From)
	return j, nil
}

// readHeader reads a stream's header and checks that it announces the
// job's comparison count.
func readHeader(br *bufio.Reader, comparisons int) (*wire.Header, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("serviceclient: reading stream header: %w", err)
	}
	var env wire.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("serviceclient: bad stream header: %w", err)
	}
	if env.Header == nil {
		return nil, errors.New("serviceclient: stream did not open with a header")
	}
	if env.Header.Comparisons != comparisons {
		return nil, fmt.Errorf("serviceclient: stream header announces %d comparisons, the job has %d",
			env.Header.Comparisons, comparisons)
	}
	return env.Header, nil
}

// run consumes the stream (resuming across drops) until the final
// record, then settles the job.
func (j *RemoteJob) run(ctx context.Context, body io.ReadCloser, br *bufio.Reader, from int) {
	defer j.updates.close()
	defer close(j.done)

	results := make([]ipukernel.AlignOut, j.Comparisons)
	arrived := make(idSet, (j.Comparisons+63)/64)
	cursor := from
	for {
		fin, err := j.consume(br, results, arrived, &cursor)
		body.Close()
		if fin != nil {
			j.settle(fin, results, arrived)
			return
		}
		if ctx.Err() != nil {
			j.err = ctx.Err()
			return
		}
		// Only a broken transport is worth a resume. A protocol error is
		// what the server's window holds: a resume would replay the same
		// bytes into the same error, for as long as the job stays
		// addressable.
		var broken *streamBroken
		if !errors.As(err, &broken) {
			j.err = err
			return
		}
		// The server replays from its window — completed batches are
		// never re-executed.
		body, br, err = j.resume(ctx, cursor)
		if err != nil {
			j.err = err
			return
		}
	}
}

// streamBroken is a read error before the final record — the one consume
// failure a resume can cure.
type streamBroken struct{ error }

func (e *streamBroken) Unwrap() error { return e.error }

// idSet holds one bit per comparison: whether its result has arrived.
type idSet []uint64

// add records id and reports whether it was new.
func (s idSet) add(id int) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	fresh := s[w]&bit == 0
	s[w] |= bit
	return fresh
}

// count returns how many ids have arrived.
func (s idSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// consume drains stream lines into results until the final record,
// marking each result's id in arrived. Its error is a *streamBroken when
// the transport failed, anything else when the stream's content is wrong
// — among that, a result id delivered twice.
func (j *RemoteJob) consume(br *bufio.Reader, results []ipukernel.AlignOut, arrived idSet, cursor *int) (*wire.Final, error) {
	// One line buffer serves the whole stream, and the next stream after
	// it: a chunk line runs from tens of KB (a cache-served chunk, capped
	// at the engine's cachedChunkResults) to hundreds (an executed batch,
	// as large as its tiles hold), and ReadBytes would allocate it twice
	// over (4 KiB fragments, then the joined copy) for every line. Nothing
	// parsed from a line may alias it — ParseChunkLine and encoding/json
	// both copy the strings they keep.
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	for {
		line, err := readLine(br, (*buf)[:0])
		*buf = line // keep what the line grew it to
		if err != nil {
			return nil, &streamBroken{err}
		}
		// Chunk lines — all but two lines of a stream, and all of its
		// bulk — take the schema-specialised parser; whatever it declines
		// (headers, finals, another producer's formatting, corruption)
		// is encoding/json's.
		ch, outs, ok := wire.ParseChunkLine(line)
		if !ok {
			var env wire.Envelope
			if err := json.Unmarshal(line, &env); err != nil {
				return nil, fmt.Errorf("serviceclient: bad stream record: %w", err)
			}
			switch {
			case env.Chunk != nil:
				ch = *env.Chunk
				outs = make([]ipukernel.AlignOut, len(ch.Results))
				for i, r := range ch.Results {
					if outs[i], err = r.AlignOut(); err != nil {
						return nil, fmt.Errorf("serviceclient: corrupt result %d: %w", r.GlobalID, err)
					}
				}
			case env.Final != nil:
				return env.Final, nil
			case env.Header != nil:
				continue // resumed streams re-open with a header
			default:
				return nil, errors.New("serviceclient: empty stream record")
			}
		}
		if ch.Seq != *cursor {
			return nil, fmt.Errorf("serviceclient: stream gap: got seq %d, want %d", ch.Seq, *cursor)
		}
		// Every chunk carries a result — an executed batch has at least
		// one job, a cache-served chunk is a non-empty window of the
		// cached results — and each result arrives once, so the job's
		// comparisons bound its chunks and the update queue's overflow.
		if len(outs) == 0 {
			return nil, fmt.Errorf("serviceclient: chunk %d carries no results", ch.Seq)
		}
		*cursor = ch.Seq + 1
		if ch.Batches > j.Batches {
			j.Batches = ch.Batches
		}
		for i := range outs {
			id := outs[i].GlobalID
			if id < 0 || id >= len(results) {
				return nil, fmt.Errorf("serviceclient: result id %d out of range", id)
			}
			if !arrived.add(id) {
				return nil, fmt.Errorf("serviceclient: result id %d delivered twice", id)
			}
			results[id] = outs[i]
		}
		j.updates.push(engine.Update{
			Batch: ch.Batch, Batches: ch.Batches,
			Seconds: ch.Seconds, Results: outs,
		})
	}
}

// lineBufs recycles consume's line buffers across streams.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// readLine appends the stream's next line, through its '\n', to buf.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// settle ends the job with its final record: the server's error, or the
// report over results once every comparison's result has arrived.
func (j *RemoteJob) settle(fin *wire.Final, results []ipukernel.AlignOut, arrived idSet) {
	j.phases = &fin.Phases
	if fin.Error != "" {
		j.err = errors.New(fin.Error)
		return
	}
	if fin.Report == nil {
		j.err = errors.New("serviceclient: final record carried neither report nor error")
		return
	}
	if n := arrived.count(); n != len(results) {
		j.err = fmt.Errorf("serviceclient: final report after %d of %d results", n, len(results))
		return
	}
	j.rep = &driver.Report{Results: results, Summary: *fin.Report}
}

// resume re-opens the result stream from cursor, retrying transport
// refusals like a submission. A 410 means the replay window outran this
// client; the job's delivered batches are unrecoverable, so resume fails.
func (j *RemoteJob) resume(ctx context.Context, cursor int) (io.ReadCloser, *bufio.Reader, error) {
	resp, err := j.c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			j.c.base+"/v1/jobs/"+j.ID+"/results?from="+strconv.Itoa(cursor), nil)
		if err != nil {
			return nil, err
		}
		if j.c.tenant != "" {
			req.Header.Set("X-Tenant", j.c.tenant)
		}
		return req, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serviceclient: resuming %s from %d: %w", j.ID, cursor, err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := readHeader(br, j.Comparisons); err != nil {
		resp.Body.Close()
		return nil, nil, err
	}
	return resp.Body, br, nil
}

// doRetry runs one transport operation with up to c.retries attempts.
// Retryable: connection errors, 429 and 503 (honouring Retry-After when
// the server sent one, else exponential backoff with full jitter).
// Other statuses fail immediately with the server's error body.
func (c *Client) doRetry(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt, lastErr); err != nil {
				return nil, err
			}
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode < 300:
			return resp, nil
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = &retryableStatus{
				status: resp.Status, retryAfter: parseRetryAfter(resp),
				body: drainError(resp),
			}
		default:
			return nil, fmt.Errorf("serviceclient: %s: %s", resp.Status, drainError(resp))
		}
	}
	return nil, fmt.Errorf("serviceclient: gave up after %d attempts: %w", c.retries, lastErr)
}

// retryableStatus carries a refused attempt's Retry-After hint through
// the backoff loop.
type retryableStatus struct {
	status     string
	retryAfter time.Duration
	body       string
}

func (e *retryableStatus) Error() string {
	if e.body != "" {
		return e.status + ": " + e.body
	}
	return e.status
}

// sleep waits out one backoff step: the server's Retry-After when the
// last refusal carried one, otherwise base<<(attempt-1) with full jitter,
// capped.
func (c *Client) sleep(ctx context.Context, attempt int, lastErr error) error {
	d := c.backoff << (attempt - 1)
	if d > c.cap {
		d = c.cap
	}
	// Full jitter in (0, d], from the process-seeded source that is safe
	// for concurrent calls: clients refused together retry apart.
	d = time.Duration(rand.Int64N(int64(d)) + 1)
	var rs *retryableStatus
	if errors.As(lastErr, &rs) && rs.retryAfter > 0 {
		d = rs.retryAfter
	}
	return clock.Sleep(ctx, c.clk, d)
}

// parseRetryAfter returns the refusal's Retry-After hint, or 0 when the
// server sent none. A header that is present but unparseable or
// non-positive still means "back off" — it is clamped to one second
// rather than discarded, so a server that derives a 0-second wait can
// never make the jittered fallback hot-loop in the millisecond range.
func parseRetryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// drainError reads a refused response's JSON {"error": …} body (or raw
// text) and closes it.
func drainError(resp *http.Response) string {
	defer resp.Body.Close()
	p, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return ""
	}
	var je struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(p, &je) == nil && je.Error != "" {
		return je.Error
	}
	return string(bytes.TrimSpace(p))
}

// Stats fetches the service's JSON stats snapshot into dst (pass a
// pointer to service.StatsReply or any compatible shape).
func (c *Client) Stats(ctx context.Context, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serviceclient: stats: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
