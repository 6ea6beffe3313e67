package service_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testCfg(ipus int) driver.Config {
	return driver.Config{
		IPUs:        ipus,
		Model:       platform.GC200,
		TilesPerIPU: 8,
		Partition:   true,
		Kernel: ipukernel.Config{
			Params:           core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
			LRSplit:          true,
			WorkStealing:     true,
			BusyWaitVariance: true,
			DualIssue:        true,
		},
	}
}

func readsData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "svc", GenomeLen: 40000, Coverage: 8, MeanReadLen: 1800, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func reportsEqual(t *testing.T, label string, got, want *driver.Report) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: wire report differs from in-process engine\n got: %+v\nwant: %+v", label, got, want)
	}
}

func newStringReader(s string) io.Reader { return strings.NewReader(s) }

// serve starts a service of cfg behind a test HTTP server; both close
// when the test ends.
func serve(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	svc := service.New(cfg)
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// encode is d's XDW payload, failing the test on an error.
func encode(t *testing.T, d *workload.Dataset) []byte {
	t.Helper()
	payload, err := wire.EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// post POSTs body to path on ts as an XDW dataset, with the headers given
// as name, value pairs (a Content-Type among them replaces the dataset's),
// and fails the test on a transport error. The caller closes the body.
func post(t *testing.T, ts *httptest.Server, path string, body io.Reader, header ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeDataset)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainStream reads a raw NDJSON result stream to its final record.
func drainStream(t *testing.T, body io.Reader) *wire.Final {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var env wire.Envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if env.Final != nil {
			return env.Final
		}
	}
	t.Fatalf("stream ended without a final record (scan err: %v)", sc.Err())
	return nil
}
