// The client's twin of engine's TestFirstUpdateNotStarvedByExecutors:
// the stream reader parses one chunk line after another for as long as
// the socket holds them, and the consumer each push wakes needs a
// processor the reader would otherwise keep.

package serviceclient_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// TestFirstResultNotStarvedByReader: a consumer parked on Results() gets
// the first chunk's update while the rest of the stream is still being
// parsed. A stub serves a precomputed stream of 40 chunks, all of it at
// once, so the reader alone is measured: at -cpu 1 the parent of the
// commit that made the reader yield after each push had filled the
// Results channel (16 updates) by the consumer's first receive. At -cpu 2
// and 4 the same bound must hold. A count, not a clock: the updates
// buffered behind the first when it was received.
func TestFirstResultNotStarvedByReader(t *testing.T) {
	const chunks, perChunk, allowed = 40, 128, 2
	base := synth.UniformPairs(synth.UniformPairsSpec{Count: 1, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 3})
	cmps := make([]workload.Comparison, chunks*perChunk)
	for i := range cmps {
		cmps[i] = base.Comparisons[0]
	}
	d := base.WithComparisons(cmps)

	header, _ := json.Marshal(wire.Envelope{Header: &wire.Header{Job: "j000001", Comparisons: len(cmps), Batches: chunks}})
	stream := append(header, '\n')
	outs := make([]ipukernel.AlignOut, perChunk)
	for seq := range chunks {
		for i := range outs {
			id := seq*perChunk + i
			outs[i] = ipukernel.AlignOut{GlobalID: id, Score: 150 + id%50, LeftScore: 60, RightScore: 73 + id%50,
				EndH: 199, EndV: 198, Cells: 4000 + int64(id), Antidiagonals: 390, MaxLiveBand: 7}
		}
		stream = wire.AppendChunkLine(stream, seq, seq, chunks, 1e-4, outs)
	}
	final, _ := json.Marshal(wire.Envelope{Final: &wire.Final{Report: &wire.ReportSummary{}}})
	stream = append(append(stream, final...), '\n')
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(stream) })

	job, err := serviceclient.New(ts.URL).Submit(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	updates := job.Results()
	first, ok := <-updates
	buffered := len(updates)
	if !ok || first.Batch != 0 {
		t.Fatalf("first update of batch %d (open %v), want batch 0", first.Batch, ok)
	}
	t.Logf("updates buffered behind the first: %d", buffered)
	if buffered > allowed {
		t.Errorf("%d more updates were buffered when the first reached the consumer; want ≤ %d", buffered, allowed)
	}
	n := 1
	for range updates {
		n++
	}
	mustWait(t, context.Background(), job)
	if n != chunks {
		t.Errorf("stream carried %d updates, want %d", n, chunks)
	}
}
