// A stream whose content is wrong is wrong on every replay: the client
// must fail the job, not re-download the window until the server forgets
// the job.

package serviceclient_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestServiceClientProtocolErrorIsTerminal serves one well-formed chunk
// followed by one corrupt record — through the fast parser's fallback and
// past it — and counts requests: one stream, no resume, Wait returns the
// error. A resumed stream would be served the same bytes again (the stub
// answers GET …/results too), which before the fix was a busy loop.
func TestServiceClientProtocolErrorIsTerminal(t *testing.T) {
	good := chunkLine(0, 0, 3, resultJSON(0, 5, ""))
	for name, tc := range map[string]struct{ bad, want string }{
		"malformed line":  {`{"chunk":{"seq":1,"batch":1,`, "bad stream record"},
		"seq gap":         {chunkLine(2, 1, 3), "stream gap"},
		"id out of range": {chunkLine(1, 1, 3, resultJSON(7, 5, "")), "out of range"},
		"invalid cigar":   {chunkLine(1, 1, 3, resultJSON(1, 5, `,"cigar":"3=0X"`)), "corrupt result 1"},
		"empty record":    {`{}`, "empty stream record"},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int32
			ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				fmt.Fprintf(w, "%s\n%s\n%s\n", headerLine(2, 3), good, tc.bad)
				// No final record: the stream just ends, as a window replay
				// of a still-running job would not.
			})
			job := submit(t, fastClient(ts.URL), testData(t, 43, 2))
			waitFails(t, waitCtx(t), job, tc.want)
			delivered := 0
			for range job.Results() {
				delivered++
			}
			if delivered != 1 {
				t.Errorf("%d updates delivered, want the one good chunk", delivered)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("%d requests, want 1: a protocol error must not resume", n)
			}
		})
	}
}

// TestServiceClientFinalNeedsEveryResult: a final report settles the job
// only when every comparison's result arrived, each once. A stream that
// repeats an id, or ends with an id never sent, fails the job instead of
// handing Wait a report with a zero-valued result — and, being the
// window's content, is not resumed.
func TestServiceClientFinalNeedsEveryResult(t *testing.T) {
	chunk := func(seq int, ids ...int) string {
		var rs []string
		for _, id := range ids {
			rs = append(rs, resultJSON(id, 5, ""))
		}
		return chunkLine(seq, seq, 2, rs...)
	}
	d := testData(t, 43, 2)
	for name, tc := range map[string]struct {
		chunks []string
		want   string
	}{
		"id twice in a chunk":  {[]string{chunk(0, 0, 0)}, "result id 0 delivered twice"},
		"id twice across two":  {[]string{chunk(0, 0), chunk(1, 0)}, "result id 0 delivered twice"},
		"id never sent":        {[]string{chunk(0, 0)}, "final report after 1 of 2 results"},
		"no result at all":     {nil, "final report after 0 of 2 results"},
		"id twice, one absent": {[]string{chunk(0, 0), chunk(1, 0, 1)}, "result id 0 delivered twice"},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int32
			ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				fmt.Fprintln(w, headerLine(2, 2))
				for _, c := range tc.chunks {
					fmt.Fprintln(w, c)
				}
				fmt.Fprintln(w, finalLine)
			})
			job := submit(t, fastClient(ts.URL), d)
			waitFails(t, waitCtx(t), job, tc.want)
			if n := requests.Load(); n != 1 {
				t.Errorf("%d requests, want 1: a protocol error must not resume", n)
			}
		})
	}
}

// TestServiceClientChecksHeaderCount: the client sizes its result array
// and update buffer from the header's comparison count, so a header that
// announces another count than the job has — negative, more, fewer —
// fails the submission, and a resumed stream's header is held to the
// count the first one announced.
func TestServiceClientChecksHeaderCount(t *testing.T) {
	d := testData(t, 43, 2)
	for _, announced := range []int{-5, 0, 1, 3} {
		t.Run(fmt.Sprint(announced), func(t *testing.T) {
			ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, "%s\n%s\n", headerLine(announced, 1), finalLine)
			})
			job, err := fastClient(ts.URL).Submit(context.Background(), d)
			if want := fmt.Sprintf("announces %d comparisons, the job has 2", announced); err == nil || job != nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Submit = %v, %v; want an error containing %q", job, err, want)
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		var requests atomic.Int32
		ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
			if requests.Add(1) == 1 { // the submission: one chunk, then the stream drops
				fmt.Fprintf(w, "%s\n%s\n", headerLine(2, 2), chunkLine(0, 0, 2, resultJSON(0, 5, "")))
				return
			}
			fmt.Fprint(w, `{"header":{"job":"j000001","comparisons":7,"batches":2,"shard":0,"from":1}}`+"\n")
			fmt.Fprintf(w, "%s\n%s\n", chunkLine(1, 1, 2, resultJSON(1, 5, "")), finalLine)
		})
		job := submit(t, fastClient(ts.URL), d)
		waitFails(t, waitCtx(t), job, "announces 7 comparisons, the job has 2")
		if n := requests.Load(); n != 2 {
			t.Errorf("%d requests, want the submission and one resume", n)
		}
	})
}
