// A stream whose content is wrong is wrong on every replay: the client
// must fail the job, not re-download the window until the server forgets
// the job.

package serviceclient_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/serviceclient"
)

// TestServiceClientProtocolErrorIsTerminal serves one well-formed chunk
// followed by one corrupt record — through the fast parser's fallback and
// past it — and counts requests: one stream, no resume, Wait returns the
// error. A resumed stream would be served the same bytes again (the stub
// answers GET …/results too), which before the fix was a busy loop.
func TestServiceClientProtocolErrorIsTerminal(t *testing.T) {
	const result = `{"id":%d,"score":5,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3%s}`
	good := `{"chunk":{"seq":0,"batch":0,"batches":3,"results":[` + fmt.Sprintf(result, 0, "") + `]}}`
	for name, tc := range map[string]struct{ bad, want string }{
		"malformed line":  {`{"chunk":{"seq":1,"batch":1,`, "bad stream record"},
		"seq gap":         {`{"chunk":{"seq":2,"batch":1,"batches":3,"results":[]}}`, "stream gap"},
		"id out of range": {`{"chunk":{"seq":1,"batch":1,"batches":3,"results":[` + fmt.Sprintf(result, 7, "") + `]}}`, "out of range"},
		"invalid cigar":   {`{"chunk":{"seq":1,"batch":1,"batches":3,"results":[` + fmt.Sprintf(result, 1, `,"cigar":"3=0X"`) + `]}}`, "corrupt result 1"},
		"empty record":    {`{}`, "empty stream record"},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				fmt.Fprintf(w, `{"header":{"job":"j000001","comparisons":2,"batches":3,"shard":0}}`+"\n%s\n%s\n", good, tc.bad)
				// No final record: the stream just ends, as a window replay
				// of a still-running job would not.
			}))
			defer ts.Close()
			c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
			job, err := c.Submit(context.Background(), testData(t, 43, 2))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rep, err := job.Wait(ctx)
			if err == nil || rep != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Wait = %v, %v; want an error containing %q", rep, err, tc.want)
			}
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
	const result = `{"id":%d,"score":5,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3}`
	chunk := func(seq int, ids ...int) string {
		var rs []string
		for _, id := range ids {
			rs = append(rs, fmt.Sprintf(result, id))
		}
		return fmt.Sprintf(`{"chunk":{"seq":%d,"batch":%d,"batches":2,"results":[%s]}}`, seq, seq, strings.Join(rs, ","))
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
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				fmt.Fprint(w, `{"header":{"job":"j000001","comparisons":2,"batches":2,"shard":0}}`+"\n")
				for _, c := range tc.chunks {
					fmt.Fprintln(w, c)
				}
				fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
			}))
			defer ts.Close()
			c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
			job, err := c.Submit(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rep, err := job.Wait(ctx)
			if err == nil || rep != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Wait = %v, %v; want an error containing %q", rep, err, tc.want)
			}
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
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, `{"header":{"job":"j000001","comparisons":%d,"batches":1,"shard":0}}`+"\n", announced)
				fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
			}))
			defer ts.Close()
			c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
			job, err := c.Submit(context.Background(), d)
			if want := fmt.Sprintf("announces %d comparisons, the job has 2", announced); err == nil || job != nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Submit = %v, %v; want an error containing %q", job, err, want)
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		const result = `{"id":%d,"score":5,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3}`
		var requests atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if requests.Add(1) == 1 { // the submission: one chunk, then the stream drops
				fmt.Fprint(w, `{"header":{"job":"j000001","comparisons":2,"batches":2,"shard":0}}`+"\n")
				fmt.Fprintf(w, `{"chunk":{"seq":0,"batch":0,"batches":2,"results":[`+result+`]}}`+"\n", 0)
				return
			}
			fmt.Fprint(w, `{"header":{"job":"j000001","comparisons":7,"batches":2,"shard":0,"from":1}}`+"\n")
			fmt.Fprintf(w, `{"chunk":{"seq":1,"batch":1,"batches":2,"results":[`+result+`]}}`+"\n", 1)
			fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
		}))
		defer ts.Close()
		c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
		job, err := c.Submit(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		const want = "announces 7 comparisons, the job has 2"
		if rep, err := job.Wait(ctx); err == nil || rep != nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Wait = %v, %v; want an error containing %q", rep, err, want)
		}
		if n := requests.Load(); n != 2 {
			t.Errorf("%d requests, want the submission and one resume", n)
		}
	})
}
