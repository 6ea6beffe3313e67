// Package service is the networked front-end of the alignment system: a
// stdlib-only streaming HTTP service (HTTP/1.1, and HTTP/2 when the
// embedding server enables it) over a pool of engine shards. It preserves
// the ipuma-lib submit/stream/join contract across the wire:
//
//	POST   /v1/jobs            submit a workload, stream NDJSON results
//	GET    /v1/jobs/{id}          job status (addressable jobs)
//	GET    /v1/jobs/{id}/results  (re-)stream results from a cursor
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/stats              per-tenant + per-shard JSON stats
//	GET    /v1/metrics            Prometheus text exposition
//	GET    /v1/healthz            liveness
//
// Jobs route to shards by content affinity — a hash of the workload's
// sequence digests — so repeat submissions of the same content land on
// the same shard and its cross-job result cache stays warm. Multi-tenant
// admission is two-layered: a per-tenant token bucket enforces fair
// share, and queue-depth load shedding (HTTP 429 with a Retry-After
// derived from engine.Stats) protects saturated shards. Delivered
// batches are retained in a bounded per-job window, so a client whose
// connection drops resumes with GET …/results?from=N instead of
// re-submitting; a job whose last stream disconnects is cancelled after
// a configurable linger.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/sram-align/xdropipu/internal/clock"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Config shapes a Server.
type Config struct {
	// Shards is the engine pool width (default 1). Each shard is an
	// independent engine — own executors, own admission queue, own result
	// cache — so tenants sharing content share warmth, not failure.
	Shards int
	// EngineOptions construct every shard (fleet size, kernel, cache,
	// fault tolerance). The same options apply to each shard, so results
	// are independent of routing.
	EngineOptions []engine.Option
	// WindowChunks bounds the per-job replay window (delivered batches
	// retained for resume), default 256. A resume cursor older than the
	// window gets 410 Gone.
	WindowChunks int
	// Linger is how long a job survives after its last stream detaches
	// before it is cancelled (default 0: immediate). Clients that intend
	// to resume ask for more with the X-Linger header, capped by
	// MaxLinger.
	Linger time.Duration
	// MaxLinger caps client-requested linger (default 60s).
	MaxLinger time.Duration
	// JobTTL is how long a settled job stays addressable for late reads
	// (default 2m) — unless newer settled jobs push the server's retained
	// replay bytes over its fixed budget first (see retainLocked).
	JobTTL time.Duration
	// TenantRatePerSec refills each tenant's admission bucket (0 = no
	// per-tenant rate limit).
	TenantRatePerSec float64
	// TenantBurst is the bucket capacity (default 4 when a rate is set).
	TenantBurst int
	// MaxLiveJobs is the per-shard load-shedding threshold: a shard with
	// this many live jobs answers 429 (0 = the shard's queue depth, so
	// shedding engages exactly where Submit would start blocking).
	MaxLiveJobs int
	// MaxBodyBytes bounds a submission body (default 1 GiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.WindowChunks <= 0 {
		c.WindowChunks = 256
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = 60 * time.Second
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 2 * time.Minute
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	return c
}

// Server is the multi-tenant alignment service over a pool of engine
// shards. Create with New, expose with Handler, release with Close.
type Server struct {
	cfg    Config
	shards []*engine.Engine
	mux    *http.ServeMux
	// bodyStall is bodyStallTimeout; a field so that a test can see a
	// stall refused without waiting 30 s for it.
	bodyStall time.Duration
	clk       clock.Clock // all timing but the body stall's net.Conn deadline

	mu      sync.Mutex
	jobs    map[string]*jobState
	tenants map[string]*tenantState
	nextID  int64
	closed  bool
	// retained queues the settled jobs still in jobs, oldest settled
	// first; expiry is the one timer, armed for the head's deadline.
	retained      []retainedJob
	retainedBytes int64
	evictedJobs   int64 // settled jobs dropped over maxRetainedBytes
	expiry        clock.Timer

	closedCh chan struct{}
	wg       sync.WaitGroup // pump goroutines

	// firstChunk observes, per job that produced a chunk, the seconds from
	// the request's arrival to the job's first update (its phases' Decode
	// plus FirstUpdate) — what a streaming client waits before it has
	// anything to work on.
	firstChunk metrics.PromHistogram
	// jobSeconds observes every settled job's Wall, from the request's
	// arrival to its final record: a cache-served job and a cold one
	// differ by an order of magnitude and nothing else on the server
	// tells them apart.
	jobSeconds metrics.PromHistogram
}

// latencyBuckets are the upper bounds, in seconds, of the service's
// latency histograms: 1 ms to 10 s, three per decade.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// New starts a server and its engine shards.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		bodyStall: bodyStallTimeout,
		clk:       clock.Real,
		jobs:      make(map[string]*jobState),
		tenants:   make(map[string]*tenantState),
		closedCh:  make(chan struct{}),

		firstChunk: metrics.PromHistogram{Bounds: latencyBuckets},
		jobSeconds: metrics.PromHistogram{Bounds: latencyBuckets},
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, engine.New(cfg.EngineOptions...))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the service's HTTP handler. It works under HTTP/1.1
// and HTTP/2 alike (enable unencrypted HTTP/2 via http.Server.Protocols
// if desired); streaming responses flush per chunk on both.
func (s *Server) Handler() http.Handler { return s.mux }

// Shards exposes the engine pool (stats, tests).
func (s *Server) Shards() []*engine.Engine { return s.shards }

// Close cancels every live job, drains the pump goroutines and shuts the
// shard engines down. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.closedCh)
	jobs := make([]*jobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		jobs = append(jobs, js)
	}
	if s.expiry != nil {
		s.expiry.Stop()
	}
	s.mu.Unlock()
	for _, js := range jobs {
		js.cancel()
	}
	s.wg.Wait()
	for _, e := range s.shards {
		e.Close()
	}
	return nil
}

// routeKey folds the workload's sequence digests into the content-
// affinity routing key: identical sequence content — regardless of which
// arena packed it — routes to the same shard, keeping that shard's
// ExtensionKey result cache warm for repeat and duplicate-heavy traffic.
// Digests are keyed per process, so the shard a given content lands on
// is stable within one server and differs from one server start to the
// next.
func routeKey(d *workload.Dataset) uint64 {
	arena, _ := d.Spine()
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < arena.Len(); i++ {
		dg := arena.Digest(i)
		h ^= dg.Lo
		h *= prime64
		h ^= dg.Hi
		h *= prime64
	}
	return h
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := s.clk.Now()
	tenant := tenantName(r)
	if ok, retry := s.admitTenant(tenant); !ok {
		writeRetryAfter(w, retry)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over fair-share rate; retry after %s", tenant, retry))
		return
	}
	// A closing server refuses before it reads the body or hands anything
	// to a shard: a job submitted now would only be cancelled, and while
	// it settles it counts as live and turns later requests into 429s.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.refundTenant(tenant)
		writeError(w, http.StatusServiceUnavailable, "service closing")
		return
	}

	d, err := s.decodeBody(w, r)
	if err != nil {
		s.refundTenant(tenant)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The body stalled past bodyStallTimeout. What is left of it
			// will not be read, so the connection cannot be reused.
			status = http.StatusRequestTimeout
			w.Header().Set("Connection", "close")
		}
		writeError(w, status, err.Error())
		return
	}

	shard := int(routeKey(d) % uint64(len(s.shards)))
	eng := s.shards[shard]
	maxLive := s.cfg.MaxLiveJobs
	if maxLive <= 0 {
		maxLive = eng.QueueDepth()
	}
	if st := eng.Stats(); st.JobsLive >= maxLive {
		retry := retryAfterFromStats(st, maxLive)
		s.tenantShed(tenant)
		s.refundTenant(tenant)
		writeRetryAfter(w, retry)
		writeError(w, StatusServiceSaturated,
			fmt.Sprintf("shard %d saturated (%d live jobs); retry after %s", shard, st.JobsLive, retry))
		return
	}

	linger := s.cfg.Linger
	if hv := r.Header.Get("X-Linger"); hv != "" {
		if pd, perr := time.ParseDuration(hv); perr == nil && pd > 0 {
			linger = min(pd, s.cfg.MaxLinger)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	decode := s.clk.Now().Sub(arrived)
	job, err := eng.Submit(ctx, d)
	if err != nil {
		cancel()
		s.refundTenant(tenant)
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}

	s.mu.Lock()
	if s.closed { // Close won the race since the check above
		s.mu.Unlock()
		cancel()
		s.refundTenant(tenant)
		writeError(w, http.StatusServiceUnavailable, "service closing")
		return
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	js := newJobState(id, tenant, shard, cancel, linger, len(d.Comparisons), s.cfg.WindowChunks, arrived)
	js.decode, js.phases = decode, r.URL.Query().Get("phases") == "1"
	s.jobs[id] = js
	ts := s.tenantLocked(tenant)
	ts.Submitted++
	ts.Live++
	s.wg.Add(1)
	s.mu.Unlock()
	go s.pump(js, job)

	if r.URL.Query().Get("stream") == "0" {
		// Detached submission: the job is addressable; results come via
		// GET …/results. No stream ever attaches, so disconnect-cancel
		// does not apply — the job runs to completion (or DELETE/TTL).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(js.headerSnapshot(0))
		return
	}
	s.streamJob(w, r, js, 0)
}

// StatusServiceSaturated is the load-shedding status (429 Too Many
// Requests, per RFC 6585, with Retry-After).
const StatusServiceSaturated = http.StatusTooManyRequests

// maxBodyPresize caps how much decodeBody allocates on a request's word
// (its Content-Length) before any byte of the body has arrived.
const maxBodyPresize = 64 << 20

// bodyStallTimeout is how long a submission body may make no progress
// before the upload is refused with 408 and its connection closed. It is a
// rolling deadline: every read that returns pushes it out again, so it
// bounds a stall, not the upload.
const bodyStallTimeout = 30 * time.Second

// stallReader pushes the connection's read deadline out by d before every
// read, so the deadline only ever expires on a read that made no progress
// for that long.
type stallReader struct {
	r  io.Reader
	rc *http.ResponseController
	d  time.Duration
}

func (sr stallReader) Read(p []byte) (int, error) {
	// A ResponseWriter without deadlines (httptest.ResponseRecorder) leaves
	// the body under whatever timeouts its server has.
	_ = sr.rc.SetReadDeadline(time.Now().Add(sr.d))
	return sr.r.Read(p)
}

// decodeBody reads and decodes a submission under MaxBodyBytes and the
// rolling bodyStallTimeout. A decoded submission leaves the connection
// without a read deadline, so that nothing the upload armed can expire
// under the result stream that follows (net/http's HTTP/1.1 server also
// resets it when a body read to its end starts the background read that
// watches for the client going away; this does not lean on that). A failed
// one keeps it, so the server's draining of the unread body cannot stall
// either.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request) (d *workload.Dataset, err error) {
	rc := http.NewResponseController(w)
	defer func() {
		if err == nil {
			_ = rc.SetReadDeadline(time.Time{}) // as in stallReader.Read
		}
	}()
	body := http.MaxBytesReader(nil, io.NopCloser(stallReader{r.Body, rc, s.bodyStall}), s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case wire.ContentTypeDataset, "application/octet-stream", "":
		// Presized from the declared length plus the slack ReadFrom wants
		// before the read that finds EOF, so the body lands in one
		// allocation (io.ReadAll grows from 512 B and allocates ~4.5× the
		// body). The declaration is a hint, not a promise: it is clamped,
		// and MaxBytesReader still bounds what is actually read.
		var buf bytes.Buffer
		if n := r.ContentLength; n > 0 {
			buf.Grow(int(min(n, s.cfg.MaxBodyBytes, maxBodyPresize)) + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(body); err != nil {
			return nil, err
		}
		// The dataset adopts the body as its slabs: buf is this request's
		// own and nothing writes to it again.
		return wire.DecodeDataset(buf.Bytes())
	case wire.ContentTypeFasta, "text/plain":
		q := r.URL.Query()
		protein, k := false, 0 // absent: DNA, DecodeFasta's default k
		if q.Has("protein") {
			if protein, err = strconv.ParseBool(q.Get("protein")); err != nil {
				return nil, fmt.Errorf("bad protein flag %q", q.Get("protein"))
			}
		}
		if q.Has("k") {
			if k, err = strconv.Atoi(q.Get("k")); err != nil || k <= 0 {
				return nil, fmt.Errorf("bad seed length k=%q: want a positive integer", q.Get("k"))
			}
		}
		name := q.Get("name")
		if name == "" {
			name = "fasta"
		}
		return wire.DecodeFasta(body, protein, k, name)
	default:
		return nil, fmt.Errorf("unsupported content type %q", ct)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(js.status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	from := 0
	if fs := r.URL.Query().Get("from"); fs != "" {
		v, err := strconv.Atoi(fs)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad from cursor")
			return
		}
		from = v
	}
	first, next := js.cursorBounds()
	if from < first {
		writeError(w, http.StatusGone,
			fmt.Sprintf("cursor %d fell out of the replay window (first retained %d)", from, first))
		return
	}
	// A cursor is a seq the client has seen plus one. Past next, a settled
	// job would stream a header and then wait on a channel nobody closes.
	if from > next {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("cursor %d ahead of the stream (next chunk %d)", from, next))
		return
	}
	s.streamJob(w, r, js, from)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if js.clientCancel() {
		s.mu.Lock()
		s.tenantLocked(js.tenant).Cancelled++
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"job": js.id, "state": "cancelling"})
}

func (s *Server) lookup(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// pump is each job's single Results consumer: it encodes every update
// once into the bounded replay window (streams are readers over that
// window), then settles the job with its final record and hands it to the
// retention queue. The engine job is the pump's alone: jobState never
// holds it, so it is garbage once the pump returns instead of staying
// reachable through s.jobs for as long as the job is retained.
//
// The job's phases time both histograms. The engine stamped its segments,
// from Submit to its settlement; the service adds Decode before them and
// Stream after them, and its Wall runs from the request's arrival to the
// final record. Stream is what Decode and the engine's segments leave of
// that Wall: the pump's drain of the updates still buffered at settlement,
// and the final record.
func (s *Server) pump(js *jobState, job *engine.Job) {
	defer s.wg.Done()
	for u := range job.Results() {
		js.appendUpdate(u)
		if js.nextSeq == 1 { // the pump is nextSeq's only writer
			s.firstChunk.Observe((js.decode + job.Phases().FirstUpdate).Seconds())
		}
	}
	rep, err := job.Wait(context.Background())
	phases := job.Phases()
	wall := s.clk.Now().Sub(js.arrived)
	phases.Add(engine.Phases{Decode: js.decode, Stream: wall - js.decode - phases.Wall, Wall: wall - phases.Wall})
	size := js.finish(rep, err, phases)
	s.jobSeconds.Observe(wall.Seconds())
	s.mu.Lock()
	ts := s.tenantLocked(js.tenant)
	ts.Live--
	if err != nil {
		ts.Failed++
	} else {
		ts.Completed++
	}
	s.retainLocked(js, size)
	s.mu.Unlock()
}

// maxRetainedBytes budgets the encoded replay windows settled jobs keep
// resident. JobTTL alone bounds retention in time, so what it pins grows
// with throughput (jobs/s × TTL × window bytes per job); this bounds it in
// bytes as well.
const maxRetainedBytes = 32 << 20

// retainedJob is one settled job awaiting removal from Server.jobs.
type retainedJob struct {
	js      *jobState
	bytes   int64
	expires time.Time
}

// retainLocked queues a just-settled job for removal under two bounds:
// age (JobTTL) and the total of retained window bytes (maxRetainedBytes,
// oldest settled evicted first). The newest settled job is always kept, so
// a job larger than the whole budget still replays until its TTL. An
// evicted id answers 404 exactly like an expired one.
func (s *Server) retainLocked(js *jobState, size int) {
	r := retainedJob{js, int64(size), s.clk.Now().Add(s.cfg.JobTTL)}
	s.retained = append(s.retained, r)
	s.retainedBytes += r.bytes
	for len(s.retained) > 1 && s.retainedBytes > maxRetainedBytes {
		s.dropOldestLocked()
		s.evictedJobs++
	}
	s.armExpiryLocked()
}

// dropOldestLocked forgets the head of the retention queue. The slot is
// zeroed before the reslice: the backing array outlives the head, and a
// pointer left in it would keep the dropped job's window reachable.
func (s *Server) dropOldestLocked() {
	head := s.retained[0]
	s.retained[0] = retainedJob{}
	s.retained = s.retained[1:]
	s.retainedBytes -= head.bytes
	delete(s.jobs, head.js.id)
}

// armExpiryLocked points the expiry timer at the queue head's deadline.
func (s *Server) armExpiryLocked() {
	switch {
	case s.closed || len(s.retained) == 0:
	case s.expiry == nil:
		s.expiry = s.clk.AfterFunc(s.retained[0].expires.Sub(s.clk.Now()), s.expire)
	default:
		s.expiry.Reset(s.retained[0].expires.Sub(s.clk.Now()))
	}
}

// expire drops every retained job whose TTL has passed.
func (s *Server) expire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for now := s.clk.Now(); len(s.retained) > 0 && !s.retained[0].expires.After(now); {
		s.dropOldestLocked()
	}
	s.armExpiryLocked()
}

// streamJob writes the NDJSON stream: header, window replay from the
// cursor, then live chunks as the pump appends them, and the final
// record. A client disconnect detaches; the last detach of an unfinished
// job arms (or is) its cancellation.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, js *jobState, from int) {
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	rc := http.NewResponseController(w)

	js.attach()
	defer s.detach(js)

	enc := json.NewEncoder(w)
	if err := enc.Encode(wire.Envelope{Header: js.headerSnapshot(from)}); err != nil {
		return
	}
	rc.Flush()

	cursor := from
	for {
		lines, final, notify, gone := js.collect(cursor)
		if gone {
			// The window outran this reader (possible only if the cursor
			// was valid at entry and the writer lapped us). Terminate;
			// the client re-resumes and gets a clean 410.
			return
		}
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		cursor += len(lines)
		if len(lines) > 0 {
			rc.Flush()
		}
		if final != nil {
			w.Write(final)
			rc.Flush()
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.closedCh:
			return
		}
	}
}

// detach undoes one attach; the last detach of an unfinished job cancels
// it immediately (linger 0) or arms the linger timer, giving a resuming
// client that long to come back before the work is torn down.
func (s *Server) detach(js *jobState) {
	js.mu.Lock()
	js.attached--
	last := js.attached == 0 && !js.done
	if !last {
		js.mu.Unlock()
		return
	}
	if js.linger <= 0 {
		js.mu.Unlock()
		js.cancel()
		return
	}
	if js.lingerT == nil {
		js.lingerT = s.clk.AfterFunc(js.linger, func() {
			js.mu.Lock()
			fire := js.attached == 0 && !js.done
			js.mu.Unlock()
			if fire {
				js.cancel()
			}
		})
	}
	js.mu.Unlock()
}

// maxTenantName is the most bytes of X-Tenant a tenant name keeps.
const maxTenantName = 64

// tenantName is the request's X-Tenant, or "default": valid UTF-8 of at
// most maxTenantName bytes, cut on a rune boundary, so that /v1/metrics
// labels and /v1/stats keys name a tenant alike.
func tenantName(r *http.Request) string {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return "default"
	}
	t = strings.ToValidUTF8(t[:min(len(t), maxTenantName)], "\uFFFD")
	for len(t) > maxTenantName {
		_, size := utf8.DecodeLastRuneInString(t)
		t = t[:len(t)-size]
	}
	return t
}

func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
