// Stream lifecycle tests: a dropped connection must cancel its job (no
// leaked engine work), a lingering job must be resumable from the exact
// cursor with zero batch re-execution, and a cursor that fell out of the
// bounded replay window must get 410 Gone rather than silent gaps.

package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
)

// slowOpts makes every batch straggle so a test can reliably interrupt a
// job mid-stream.
func slowOpts(delay time.Duration, seed int64) []engine.Option {
	cfg := testCfg(1)
	cfg.Faults = driver.NewFaultPlan(seed, driver.FaultSpec{StragglerRate: 1, StragglerDelay: delay})
	// Several batches per job, so streams can be interrupted between
	// chunks.
	cfg.MaxBatchJobs = 4
	return []engine.Option{
		engine.WithDriverConfig(cfg), engine.WithQueueDepth(8), engine.WithExecutors(1),
	}
}

// TestServiceDisconnectCancelsJob: with no linger, dropping the
// submitting stream mid-job cancels the engine work; nothing leaks and
// the server closes cleanly. Run under -race in CI's service soak.
func TestServiceDisconnectCancelsJob(t *testing.T) {
	svc, ts := serve(t, service.Config{Shards: 1, EngineOptions: slowOpts(100*time.Millisecond, 2)})

	payload := encode(t, readsData(t, 11, 16))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeDataset)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header so the job is certainly attached, then drop the
	// connection mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// Disconnect-cancellation must reach the engine: live jobs drain to
	// zero without the job having run to completion.
	waitForLive(t, svc, 0, 10*time.Second)
	if done := svc.Shards()[0].Stats().JobsDone; done != 0 {
		t.Fatalf("job ran to completion (JobsDone=%d) despite mid-stream disconnect", done)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// streamChunks reads header + chunk lines off a raw stream, stopping
// after max chunks (or the final record). It returns the collected
// chunks and whether the final record was seen.
func streamChunks(t *testing.T, br *bufio.Reader, max int) (chunks []*wire.Chunk, final *wire.Final) {
	t.Helper()
	for max <= 0 || len(chunks) < max {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		var env wire.Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		switch {
		case env.Chunk != nil:
			chunks = append(chunks, env.Chunk)
		case env.Final != nil:
			return chunks, env.Final
		}
	}
	return chunks, nil
}

// TestServiceResumeFromCursor: drop a lingering stream after two chunks,
// resume with GET …/results?from=N, and verify (a) the resumed stream
// carries exactly the remaining chunks, (b) the union reconstructs every
// comparison once, and (c) the engine executed each batch exactly once —
// resume is replay, not re-execution.
func TestServiceResumeFromCursor(t *testing.T) {
	svc, ts := serve(t, service.Config{
		Shards: 1, EngineOptions: slowOpts(50*time.Millisecond, 3),
		Linger: 0, MaxLinger: time.Minute, // linger comes from the client header
	})

	d := readsData(t, 13, 20)
	payload := encode(t, d)
	resp := post(t, ts, "/v1/jobs", bytes.NewReader(payload), "X-Linger", "30s")
	br := bufio.NewReader(resp.Body)
	hline, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var henv wire.Envelope
	if err := json.Unmarshal(hline, &henv); err != nil || henv.Header == nil {
		t.Fatalf("no stream header: %v", err)
	}
	id := henv.Header.Job

	first, final := streamChunks(t, br, 2)
	if final != nil {
		t.Skip("job finished before the stream could be interrupted; nothing to resume")
	}
	resp.Body.Close() // detach; X-Linger keeps the job alive

	results := map[int]ipukernel.AlignOut{}
	record := func(chs []*wire.Chunk) {
		for _, ch := range chs {
			for _, r := range ch.Results {
				o, err := r.AlignOut()
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := results[o.GlobalID]; dup {
					t.Fatalf("comparison %d delivered twice across resume", o.GlobalID)
				}
				results[o.GlobalID] = o
			}
		}
	}
	record(first)

	// A cursor the running job has not reached is refused, not parked.
	aresp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", ts.URL, id, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cursor ahead of a running job: got %s, want 400", aresp.Status)
	}

	cursor := len(first)
	rresp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", ts.URL, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %s", rresp.Status)
	}
	rbr := bufio.NewReader(rresp.Body)
	rline, err := rbr.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var renv wire.Envelope
	if err := json.Unmarshal(rline, &renv); err != nil || renv.Header == nil || renv.Header.From != cursor {
		t.Fatalf("resume header wrong: %s", rline)
	}
	rest, rfinal := streamChunks(t, rbr, 0)
	if rfinal == nil || rfinal.Error != "" {
		t.Fatalf("resumed stream did not finish cleanly: %+v", rfinal)
	}
	if len(rest) > 0 && rest[0].Seq != cursor {
		t.Fatalf("resumed stream starts at seq %d, want %d", rest[0].Seq, cursor)
	}
	record(rest)

	if len(results) != len(d.Comparisons) {
		t.Fatalf("assembled %d of %d comparisons across resume", len(results), len(d.Comparisons))
	}
	// No re-execution: the engine ran the schedule exactly once.
	if st := svc.Shards()[0].Stats(); st.BatchesDone != int64(rfinal.Report.Batches) {
		t.Fatalf("engine executed %d batches for a %d-batch schedule: resume re-ran work",
			st.BatchesDone, rfinal.Report.Batches)
	}
}

// TestServiceResumeWindowGone: a cursor older than the bounded replay
// window answers 410 Gone, one the stream has not reached 400; only a
// cursor inside [firstRetained, chunks] opens a stream.
func TestServiceResumeWindowGone(t *testing.T) {
	cfg := testCfg(1)
	cfg.MaxBatchJobs = 4 // multi-chunk delivery trims the 1-chunk window
	_, ts := serve(t, service.Config{
		Shards: 1, WindowChunks: 1,
		EngineOptions: []engine.Option{engine.WithDriverConfig(cfg), engine.WithExecutors(1)},
	})

	payload := encode(t, readsData(t, 17, 16))
	// Submit detached: no stream ever attaches, so the job runs to
	// completion with the pump trimming the 1-chunk window as it goes.
	sresp := post(t, ts, "/v1/jobs?stream=0", bytes.NewReader(payload))
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached submit: %s", sresp.Status)
	}
	var hdr wire.Header
	if err := json.NewDecoder(sresp.Body).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	// Wait for the job to settle, then confirm the window trimmed: any
	// multi-chunk schedule overwrites seq 0.
	var st service.JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts, "/v1/jobs/"+hdr.Job, &st)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Error != "" {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.FirstRetained == 0 {
		t.Skipf("schedule delivered %d chunk(s); window never trimmed", st.Chunks)
	}
	// One table over the cursor of the settled job: a malformed or
	// out-of-range cursor is refused up front and the body ends at once —
	// a cursor past the stream must not be answered with a header and
	// then held open on a job that will never produce another chunk.
	for _, tc := range []struct {
		from string
		want int
	}{
		{"-1", http.StatusBadRequest},
		{"abc", http.StatusBadRequest},
		{"1e3", http.StatusBadRequest},
		{"99999999999999999999", http.StatusBadRequest},
		{"0", http.StatusGone},
		{strconv.Itoa(st.FirstRetained - 1), http.StatusGone},
		{strconv.Itoa(st.Chunks), http.StatusOK},
		{strconv.Itoa(st.Chunks + 1), http.StatusBadRequest},
		{strconv.FormatInt(1<<40, 10), http.StatusBadRequest},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/jobs/"+hdr.Job+"/results?from="+tc.from, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("from=%s: %v", tc.from, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			t.Fatalf("from=%s: body not closed promptly: %v (read %q)", tc.from, err, body)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("from=%s: got %s, want %d", tc.from, resp.Status, tc.want)
		}
		if tc.want != http.StatusOK {
			continue
		}
		// The cursor at the end of a settled stream: header, then final.
		br := bufio.NewReader(bytes.NewReader(body))
		hline, _ := br.ReadBytes('\n')
		var henv wire.Envelope
		if json.Unmarshal(hline, &henv) != nil || henv.Header == nil || henv.Header.From != st.Chunks {
			t.Fatalf("from=%s: resume header wrong: %s", tc.from, hline)
		}
		if chunks, final := streamChunks(t, br, 0); len(chunks) != 0 || final.Error != "" || br.Buffered() != 0 {
			t.Fatalf("from=%s: want header + final, got %q", tc.from, body)
		}
	}
}

// TestServiceCancelEndpoint: DELETE tears a running job down; its
// streams settle with the cancellation error and the engine frees the
// slot.
func TestServiceCancelEndpoint(t *testing.T) {
	svc, ts := serve(t, service.Config{Shards: 1, EngineOptions: slowOpts(100*time.Millisecond, 5)})

	payload := encode(t, readsData(t, 19, 16))
	resp := post(t, ts, "/v1/jobs", bytes.NewReader(payload))
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var env wire.Envelope
	if err := json.Unmarshal(line, &env); err != nil || env.Header == nil {
		t.Fatalf("no header: %v", err)
	}

	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+env.Header.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", dresp.Status)
	}

	_, final := streamChunks(t, br, 0)
	if final == nil || final.Error == "" {
		t.Fatalf("cancelled job's stream settled without an error: %+v", final)
	}
	waitForLive(t, svc, 0, 10*time.Second)
}

// TestServiceCancelCountsJobOnce: the tenant's cancelled counter counts
// jobs, not DELETE requests — a second DELETE of the same job and a
// DELETE of a job that already settled add nothing.
func TestServiceCancelCountsJobOnce(t *testing.T) {
	_, ts := serve(t, service.Config{Shards: 1, EngineOptions: slowOpts(100*time.Millisecond, 6)})
	payload := encode(t, readsData(t, 23, 16))
	submit := func(tenant string) string {
		resp := post(t, ts, "/v1/jobs?stream=0", bytes.NewReader(payload), "X-Tenant", tenant)
		defer resp.Body.Close()
		var hdr wire.Header
		if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&hdr) != nil {
			t.Fatalf("detached submit: %s", resp.Status)
		}
		return hdr.Job
	}
	cancel := func(id string) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: %s", id, resp.Status)
		}
	}
	cancelled := func(tenant string) int64 {
		var st struct {
			Tenants map[string]struct {
				Cancelled int64 `json:"cancelled"`
			} `json:"tenants"`
		}
		getJSON(t, ts, "/v1/stats", &st)
		return st.Tenants[tenant].Cancelled
	}

	running := submit("running")
	cancel(running)
	cancel(running)
	if got := cancelled("running"); got != 1 {
		t.Errorf("two DELETEs of one running job counted %d cancelled, want 1", got)
	}

	settled := submit("settled")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st service.JobStatus
		getJSON(t, ts, "/v1/jobs/"+settled, &st)
		if st.Done {
			if st.Error != "" {
				t.Fatalf("job failed: %s", st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel(settled)
	if got := cancelled("settled"); got != 0 {
		t.Errorf("a DELETE after completion counted %d cancelled, want 0", got)
	}
}

// TestServiceStalledBodyIsDisconnected: an uploader that sends its headers
// and half its body, then nothing, is answered 408 and disconnected within
// the stall timeout — while a well-behaved job submitted to the same server
// before it streams its results for longer than that timeout and finishes:
// the deadline guards the upload only, never the result stream behind it.
func TestServiceStalledBodyIsDisconnected(t *testing.T) {
	const stall = 300 * time.Millisecond
	opts := slowOpts(150*time.Millisecond, 3)
	svc, ts := serve(t, service.Config{Shards: 1, EngineOptions: opts})
	svc.SetBodyStall(stall)
	payload := encode(t, readsData(t, 11, 16))

	type streamed struct {
		final *wire.Final
		took  time.Duration
		err   error
	}
	good := make(chan streamed, 1)
	go func() {
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(payload))
		if err != nil {
			good <- streamed{err: err}
			return
		}
		req.Header.Set("Content-Type", wire.ContentTypeDataset)
		resp, err := ts.Client().Do(req)
		if err != nil {
			good <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		// Not streamChunks: it fails the test, which only the test's own
		// goroutine may do.
		dec := json.NewDecoder(resp.Body)
		for {
			var env wire.Envelope
			if err := dec.Decode(&env); err != nil {
				good <- streamed{err: err}
				return
			}
			if env.Final != nil {
				good <- streamed{final: env.Final, took: time.Since(start)}
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: stall\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentTypeDataset, len(payload))
	if _, err := conn.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	// The server must hang up on its own; this deadline only bounds the test.
	conn.SetReadDeadline(start.Add(20 * stall))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled upload still connected %v after its last byte: %v", time.Since(start), err)
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("disconnected after %v, before the %v stall timeout", took, stall)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 408 ")) || !bytes.Contains(reply, []byte("Connection: close")) {
		t.Fatalf("stalled upload answered %q, want a 408 that closes the connection", reply)
	}

	select {
	case g := <-good:
		if g.err != nil || g.final.Error != "" || g.final.Report == nil {
			t.Fatalf("well-behaved job beside the stalled upload: final %+v, err %v", g.final, g.err)
		}
		if g.took <= stall {
			t.Fatalf("well-behaved job took %v: it must stream for longer than the %v stall timeout to show the deadline is cleared", g.took, stall)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("well-behaved job never finished")
	}
}
