package serviceclient_test

import (
	"fmt"
	"net/http"
	"testing"
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
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, headerLine(n, n-cached))
		for seq := 0; seq < n; seq++ {
			batch := -1
			if seq >= cached {
				batch = seq - cached
			}
			fmt.Fprintln(w, chunkLine(seq, batch, n-cached, resultJSON(seq, 5, "")))
		}
		fmt.Fprintln(w, finalLine)
	})
	job := submit(t, fastClient(ts.URL), testData(t, 43, n)) // the header announces what was submitted
	// Nothing has read Results yet.
	rep, err := job.Wait(waitCtx(t))
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
