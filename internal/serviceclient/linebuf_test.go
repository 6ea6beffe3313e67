// The stream reader keeps one line buffer per stream and overwrites it
// with every line; what it hands out must not point into it.

package serviceclient_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/serviceclient"
)

// TestConsumeResultsSurviveBufferReuse streams two chunks, each longer
// than bufio's 4 KiB so both are assembled in the reused buffer, the second
// at least as long as the first so it overwrites every byte of it. The
// first chunk's ids and CIGARs are read only after the whole stream has
// been consumed: a parser that aliased the line would show the second
// chunk's bytes there.
func TestConsumeResultsSurviveBufferReuse(t *testing.T) {
	const perChunk = 8
	// Distinct, long CIGARs: result id's runs are built from its id, so a
	// string that now reads another result's bytes cannot compare equal.
	cigarOf := func(id int) alignment.Cigar {
		var b alignment.Builder
		for k := 0; k < 120; k++ {
			b.Append(alignment.OpMatch, 1+id+k)
			b.Append(alignment.OpMismatch, 1+k%3)
		}
		return b.Cigar()
	}
	chunk := func(seq int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"chunk":{"seq":%d,"batch":%d,"batches":2,"results":[`, seq, seq)
		for i := 0; i < perChunk; i++ {
			id := seq*perChunk + i
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"id":%d,"score":%d,"ls":1,"rs":2,"bh":0,"bv":0,"eh":9,"ev":9,"cells":40,"ad":18,"band":3,"cigar":%q}`,
				id, 100+id, cigarOf(id))
		}
		sb.WriteString("]}}")
		return sb.String()
	}
	first, second := chunk(0), chunk(1)
	if len(first) <= 4096 || len(second) < len(first) {
		t.Fatalf("chunk lines of %d and %d bytes do not exercise the reused buffer", len(first), len(second))
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"header":{"job":"j000001","comparisons":%d,"batches":2,"shard":0}}`+"\n%s\n%s\n"+`{"final":{"report":{}}}`+"\n",
			2*perChunk, first, second)
	}))
	defer ts.Close()

	c := serviceclient.New(ts.URL, serviceclient.WithTransportBackoff(time.Millisecond, 2*time.Millisecond))
	job, err := c.Submit(context.Background(), testData(t, 43, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := job.Wait(ctx) // the whole stream is consumed: the buffer now holds the final record
	if err != nil {
		t.Fatal(err)
	}
	var updates []engine.Update
	for u := range job.Results() {
		updates = append(updates, u)
	}
	if len(updates) != 2 {
		t.Fatalf("%d updates, want 2", len(updates))
	}
	for seq, u := range updates {
		if len(u.Results) != perChunk {
			t.Fatalf("update %d carries %d results, want %d", seq, len(u.Results), perChunk)
		}
		for i, r := range u.Results {
			id := seq*perChunk + i
			if r.GlobalID != id || r.Score != 100+id || r.Cigar != cigarOf(id) {
				t.Errorf("update %d result %d: id %d score %d cigar %.24s…; want id %d score %d cigar %.24s…",
					seq, i, r.GlobalID, r.Score, r.Cigar, id, 100+id, cigarOf(id))
			}
			if got := rep.Results[id]; got.Cigar != cigarOf(id) {
				t.Errorf("report result %d: cigar %.24s…, want %.24s…", id, got.Cigar, cigarOf(id))
			}
		}
	}
}
