package serviceclient_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/serviceclient"
)

// TestServiceClientBuffersWorstCaseStream: the reader must never block on
// a consumer that is not reading Results — the in-process Job's guarantee.
// Its buffer is sized from the header's comparison count, which bounds the
// chunks however the server cuts them, because every chunk carries at
// least one comparison. This is the bound met with equality: one result
// per chunk, the leading ones cache-served (a job has as many Batch == -1
// chunks as its cached results fill), nobody draining until Wait has
// returned.
func TestServiceClientBuffersWorstCaseStream(t *testing.T) {
	const n, cached = 64, 40
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // an unread body makes the server linger 0.5 s on close
		fmt.Fprintf(w, `{"header":{"job":"j000001","comparisons":%d,"batches":%d,"shard":0}}`+"\n", n, n-cached)
		for seq := 0; seq < n; seq++ {
			batch := -1
			if seq >= cached {
				batch = seq - cached
			}
			fmt.Fprintf(w, `{"chunk":{"seq":%d,"batch":%d,"batches":%d,"results":[{"id":%d,"score":5,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3}]}}`+"\n",
				seq, batch, n-cached, seq)
		}
		fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
	}))
	defer ts.Close()

	c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
	job, err := c.Submit(context.Background(), testData(t, 43, n)) // the header announces what was submitted
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := job.Wait(ctx) // nothing has read Results yet
	if err != nil {
		t.Fatalf("Wait with an undrained stream of %d one-result chunks: %v", n, err)
	}
	if len(rep.Results) != n {
		t.Fatalf("report carries %d results, want %d", len(rep.Results), n)
	}
	updates, leading := 0, 0
	for u := range job.Results() {
		if u.Batch == -1 {
			if updates != leading {
				t.Error("a cache-served update followed an executed one")
			}
			leading++
		}
		updates++
	}
	if updates != n || leading != cached {
		t.Errorf("%d updates (%d cache-served), want %d (%d)", updates, leading, n, cached)
	}
}
