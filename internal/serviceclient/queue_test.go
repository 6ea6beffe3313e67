// The Results stream is a small channel plus an ordered overflow: the
// reader never blocks on the consumer, order holds across the overflow,
// the forwarder that drains it ends with the stream, and a chunk with no
// results — which would let a stream outgrow any bound — fails the job.

package serviceclient_test

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/serviceclient"
)

// TestServiceClientRejectsEmptyChunks: ten empty chunks lead the stream
// of a 2-comparison job and nobody reads Results. The first empty chunk
// is a protocol error, so Wait returns within a second; a reader that
// queued them could fill any buffer sized from the comparison count and
// block until Wait's deadline.
func TestServiceClientRejectsEmptyChunks(t *testing.T) {
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, headerLine(2, 2))
		for seq := 0; seq < 10; seq++ {
			fmt.Fprintln(w, chunkLine(seq, -1, 2))
		}
		for id := 0; id < 2; id++ {
			fmt.Fprintln(w, chunkLine(10+id, id, 2, resultJSON(id, 5, "")))
		}
		fmt.Fprintln(w, finalLine)
	})
	job := submit(t, fastClient(ts.URL), testData(t, 43, 2))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	waitFails(t, ctx, job, "chunk 0 carries no results")
}

// TestServiceClientQueueSpillsInOrder streams three channels' worth of
// one-result chunks to consumers that read late, slowly, or not until
// the job has settled: every update arrives in stream order across the
// overflow, the report is whole, and no forwarder outlives the drained
// stream — nor starts for a job whose Results nobody has asked for.
func TestServiceClientQueueSpillsInOrder(t *testing.T) {
	const n = 3 * serviceclient.UpdateQueueCap
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, headerLine(n, n))
		for seq := 0; seq < n; seq++ {
			fmt.Fprintln(w, chunkLine(seq, seq, n, resultJSON(seq, seq+5, "")))
		}
		fmt.Fprintln(w, finalLine)
	})
	c := fastClient(ts.URL)
	d := testData(t, 43, n)

	for _, mode := range []string{"taken, drained after Wait", "drained slowly", "taken after Wait"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			job, err := c.Submit(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			var results <-chan engine.Update
			read := func(u engine.Update, i int) {
				t.Helper()
				if u.Batch != i || len(u.Results) != 1 || u.Results[0].GlobalID != i || u.Results[0].Score != i+5 {
					t.Fatalf("update %d is batch %d with %d results, want batch %d with result %d", i, u.Batch, len(u.Results), i, i)
				}
			}
			got := 0
			switch mode {
			case "taken, drained after Wait":
				results = job.Results()
				mustWait(t, ctx, job)
			case "drained slowly":
				results = job.Results()
				for got < n/2 {
					read(<-results, got)
					got++
					time.Sleep(200 * time.Microsecond)
				}
			case "taken after Wait":
				mustWait(t, ctx, job)
				if forwarders() != 0 {
					t.Fatal("a forwarder runs for a job whose Results was never taken")
				}
				results = job.Results()
			}
			for u := range results {
				read(u, got)
				got++
			}
			if got != n {
				t.Fatalf("%d updates, want %d", got, n)
			}
			rep := mustWait(t, ctx, job)
			for id, o := range rep.Results {
				if o.GlobalID != id || o.Score != id+5 {
					t.Fatalf("report result %d = id %d score %d", id, o.GlobalID, o.Score)
				}
			}
			// The forwarder closes the channel as its last step: it is gone
			// a moment after the range ends.
			for deadline := time.Now().Add(2 * time.Second); forwarders() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the forwarder outlived the drained stream")
				}
			}
		})
	}
}

// forwarders counts the goroutines running an update queue's forwarder.
func forwarders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "serviceclient.(*updateQueue).forward(")
}
