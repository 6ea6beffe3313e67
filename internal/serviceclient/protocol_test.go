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
