package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// TestServiceResumeBetweenCacheServedChunks: a cache-served job large
// enough for several Batch == -1 chunks is an ordinary stream to the
// replay window — each chunk has its own seq, and a resume cursor that
// falls between two of them replays the rest byte for byte.
func TestServiceResumeBetweenCacheServedChunks(t *testing.T) {
	svc := service.New(service.Config{Shards: 1, EngineOptions: []engine.Option{
		engine.WithDriverConfig(testCfg(1)), engine.WithResultCache(1 << 12),
	}})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	base := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 275, Length: 200, ErrorRate: 0.15, SeedLen: 17, Seed: 41})
	var cmps []workload.Comparison
	for f := 0; f < 4; f++ {
		cmps = append(cmps, base.Comparisons...)
	}
	d := base.WithComparisons(cmps)
	payload, err := wire.EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}

	// readLines returns a stream's lines, header first, final last.
	readLines := func(resp *http.Response) [][]byte {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream: %s", resp.Status)
		}
		var lines [][]byte
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("stream ended after %d lines without a final record: %v", len(lines), err)
			}
			lines = append(lines, line)
			if bytes.HasPrefix(line, []byte(`{"final"`)) {
				return lines
			}
		}
	}
	post := func() [][]byte {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", wire.ContentTypeDataset, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		return readLines(resp)
	}

	post() // cold: fills the cache
	warm := post()
	var hdr wire.Envelope
	if err := json.Unmarshal(warm[0], &hdr); err != nil || hdr.Header == nil {
		t.Fatalf("no stream header: %s", warm[0])
	}
	chunks := warm[1 : len(warm)-1]
	if len(chunks) < 3 {
		t.Fatalf("cache-served job of %d comparisons streamed %d chunks, want several", len(cmps), len(chunks))
	}
	seen := make([]bool, len(cmps))
	for seq, line := range chunks {
		ch, outs, ok := wire.ParseChunkLine(line)
		if !ok || ch.Seq != seq || ch.Batch != -1 || ch.Batches != 0 {
			t.Fatalf("chunk %d: parsed=%v seq=%d batch=%d batches=%d, want a cache-served chunk", seq, ok, ch.Seq, ch.Batch, ch.Batches)
		}
		for _, o := range outs {
			if seen[o.GlobalID] {
				t.Fatalf("comparison %d streamed twice", o.GlobalID)
			}
			seen[o.GlobalID] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("comparison %d never streamed", id)
		}
	}
	var fin wire.Envelope
	if err := json.Unmarshal(warm[len(warm)-1], &fin); err != nil || fin.Final == nil || fin.Final.Report == nil {
		t.Fatalf("bad final record: %s", warm[len(warm)-1])
	}
	if rep := fin.Final.Report; rep.Batches != 0 || rep.CacheMisses != 0 || rep.CacheHits != len(base.Comparisons) {
		t.Fatalf("warm job: %d batches, %d hits, %d misses", rep.Batches, rep.CacheHits, rep.CacheMisses)
	}

	// Resume between chunks k-1 and k, for every k: the settled job's
	// window replays the same bytes the first reader got.
	for from := 1; from <= len(chunks); from++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", ts.URL, hdr.Header.Job, from))
		if err != nil {
			t.Fatal(err)
		}
		got := readLines(resp)
		var rh wire.Envelope
		if err := json.Unmarshal(got[0], &rh); err != nil || rh.Header == nil || rh.Header.From != from {
			t.Fatalf("resume from %d: header %s", from, got[0])
		}
		want := warm[1+from:]
		if len(got)-1 != len(want) {
			t.Fatalf("resume from %d replayed %d lines, want %d", from, len(got)-1, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[1+i], want[i]) {
				t.Fatalf("resume from %d: line %d differs from the first delivery", from, i)
			}
		}
	}
}
