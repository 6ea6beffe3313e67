// The Results stream is a small channel plus an ordered overflow: the
// reader never blocks on the consumer, order holds across the overflow,
// the forwarder that drains it ends with the stream, and a chunk with no
// results — which would let a stream outgrow any bound — fails the job.

package serviceclient_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // an unread body makes the server linger 0.5 s on close
		fmt.Fprint(w, `{"header":{"job":"j000001","comparisons":2,"batches":2,"shard":0}}`+"\n")
		for seq := 0; seq < 10; seq++ {
			fmt.Fprintf(w, `{"chunk":{"seq":%d,"batch":-1,"batches":2,"results":[]}}`+"\n", seq)
		}
		for id := 0; id < 2; id++ {
			fmt.Fprintf(w, `{"chunk":{"seq":%d,"batch":%d,"batches":2,"results":[{"id":%d,"score":5,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3}]}}`+"\n",
				10+id, id, id)
		}
		fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
	}))
	defer ts.Close()
	c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
	job, err := c.Submit(context.Background(), testData(t, 43, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	const want = "chunk 0 carries no results"
	if rep, err := job.Wait(ctx); err == nil || rep != nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait = %v, %v; want an error containing %q", rep, err, want)
	}
}

// TestServiceClientQueueSpillsInOrder streams three channels' worth of
// one-result chunks to consumers that read late, slowly, or not until
// the job has settled: every update arrives in stream order across the
// overflow, the report is whole, and no forwarder outlives the drained
// stream — nor starts for a job whose Results nobody has asked for.
func TestServiceClientQueueSpillsInOrder(t *testing.T) {
	const n = 3 * serviceclient.UpdateQueueCap
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // an unread body makes the server linger 0.5 s on close
		fmt.Fprintf(w, `{"header":{"job":"j000001","comparisons":%d,"batches":%d,"shard":0}}`+"\n", n, n)
		for seq := 0; seq < n; seq++ {
			fmt.Fprintf(w, `{"chunk":{"seq":%d,"batch":%d,"batches":%d,"results":[{"id":%d,"score":%d,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3}]}}`+"\n",
				seq, seq, n, seq, seq+5)
		}
		fmt.Fprint(w, `{"final":{"report":{}}}`+"\n")
	}))
	defer ts.Close()
	c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
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
				if _, err := job.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			case "drained slowly":
				results = job.Results()
				for got < n/2 {
					read(<-results, got)
					got++
					time.Sleep(200 * time.Microsecond)
				}
			case "taken after Wait":
				if _, err := job.Wait(ctx); err != nil {
					t.Fatal(err)
				}
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
			rep, err := job.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
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
