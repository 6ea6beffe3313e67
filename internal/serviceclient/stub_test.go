// Stub servers and the stream lines they write, for the tests that hold
// the client to a stream no real server would send.

package serviceclient_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

// stubServer answers every request through serve, after reading the
// request body to its end (an unread body makes the server linger 0.5 s
// on close). It closes when the test ends.
func stubServer(t *testing.T, serve http.HandlerFunc) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		serve(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// fastClient is a client of url whose transport retries wait 1–2 ms.
func fastClient(url string, opts ...serviceclient.Option) *serviceclient.Client {
	return serviceclient.New(url, append(opts, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))...)
}

// headerLine announces a job of n comparisons in batches batches.
func headerLine(n, batches int) string {
	return fmt.Sprintf(`{"header":{"job":"j000001","comparisons":%d,"batches":%d,"shard":0}}`, n, batches)
}

// chunkLine is one chunk record of the results given.
func chunkLine(seq, batch, batches int, results ...string) string {
	return fmt.Sprintf(`{"chunk":{"seq":%d,"batch":%d,"batches":%d,"results":[%s]}}`, seq, batch, batches, strings.Join(results, ","))
}

// resultJSON is one result of a chunk; extra is spliced in after its last
// field.
func resultJSON(id, score int, extra string) string {
	return fmt.Sprintf(`{"id":%d,"score":%d,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3%s}`, id, score, extra)
}

// finalLine is a final record with an empty report.
const finalLine = `{"final":{"report":{}}}`

// waitCtx bounds a Wait at 10 s; it is cancelled when the test ends.
func waitCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// submit submits d through c and fails the test on an error.
func submit(t *testing.T, c *serviceclient.Client, d *workload.Dataset) *serviceclient.RemoteJob {
	t.Helper()
	job, err := c.Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// mustWait is job's report, failing the test on an error.
func mustWait(t *testing.T, ctx context.Context, job *serviceclient.RemoteJob) *driver.Report {
	t.Helper()
	rep, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// waitFails requires Wait to return no report and an error containing
// want.
func waitFails(t *testing.T, ctx context.Context, job *serviceclient.RemoteJob, want string) {
	t.Helper()
	if rep, err := job.Wait(ctx); err == nil || rep != nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait = %v, %v; want an error containing %q", rep, err, want)
	}
}
