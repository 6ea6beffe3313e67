// The stream reader keeps one line buffer per stream and overwrites it
// with every line; what it hands out must not point into it.

package serviceclient_test

import (
	"fmt"
	"net/http"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/engine"
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
		results := make([]string, perChunk)
		for i := range results {
			id := seq*perChunk + i
			results[i] = resultJSON(id, 100+id, fmt.Sprintf(`,"cigar":%q`, cigarOf(id)))
		}
		return chunkLine(seq, seq, 2, results...)
	}
	first, second := chunk(0), chunk(1)
	if len(first) <= 4096 || len(second) < len(first) {
		t.Fatalf("chunk lines of %d and %d bytes do not exercise the reused buffer", len(first), len(second))
	}
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s\n%s\n%s\n%s\n", headerLine(2*perChunk, 2), first, second, finalLine)
	})
	job := submit(t, fastClient(ts.URL), testData(t, 43, 2*perChunk)) // the header announces what was submitted
	// The whole stream is consumed: the buffer now holds the final record.
	rep := mustWait(t, waitCtx(t), job)
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
