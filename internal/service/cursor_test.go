package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/service/wire"
)

// FuzzResultsCursor: GET …/results?from=<cursor> against a settled job
// whose window holds seqs 4–7 of 8 answers, for any cursor string, 200
// with exactly the window's lines from the cursor's seq and then the
// final record, or 400, or 410 — and answers: no panic, no hang. A cursor
// that is a plain decimal seq is held to the one right answer: 410 below
// the window, 200 from 4 through 8 (8 replays only the final record), 400
// past it.
func FuzzResultsCursor(f *testing.F) {
	const chunks, window = 8, 4
	s := New(Config{Shards: 1, WindowChunks: window})
	defer s.Close()
	js := newJobState("j000001", "fuzz", 0, func() {}, 0, chunks, window, s.clk.Now())
	for seq := range chunks {
		js.appendUpdate(engine.Update{Batch: seq, Batches: chunks, Seconds: 1e-3,
			Results: []ipukernel.AlignOut{{GlobalID: seq, Score: 40 + seq, Cells: 900}}})
	}
	js.finish(&driver.Report{Summary: driver.Summary{Batches: chunks}}, nil, engine.Phases{})
	s.jobs[js.id] = js
	first, next := js.cursorBounds()
	if first != chunks-window || next != chunks {
		f.Fatalf("window holds seqs [%d, %d), want [%d, %d)", first, next, chunks-window, chunks)
	}

	for _, seed := range []string{"", "0", "3", "4", "7", "8", "9", "-1", "+5", "007", "5 ", "0x5", "abc",
		"99999999999999999999", "-9223372036854775808", "9223372036854775807"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, cursor string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/j000001/results?"+url.Values{"from": {cursor}}.Encode(), nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("cursor %q: no answer in 10 s", cursor)
		}

		// The one right answer for a cursor that is a plain decimal seq.
		want := 0
		plain, seq := decimal(cursor)
		if plain {
			switch {
			case seq < first:
				want = http.StatusGone
			case seq <= next:
				want = http.StatusOK
			default:
				want = http.StatusBadRequest
			}
		}
		switch rec.Code {
		case http.StatusBadRequest, http.StatusGone:
			if want != 0 && rec.Code != want {
				t.Fatalf("cursor %q: %d, want %d", cursor, rec.Code, want)
			}
			return
		case http.StatusOK:
			if want != 0 && want != http.StatusOK {
				t.Fatalf("cursor %q: 200, want %d", cursor, want)
			}
		default:
			t.Fatalf("cursor %q: %d %s", cursor, rec.Code, rec.Body)
		}

		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(nil, 1<<20)
		var env wire.Envelope
		if !sc.Scan() || json.Unmarshal(sc.Bytes(), &env) != nil || env.Header == nil {
			t.Fatalf("cursor %q: the replay does not open with a header", cursor)
		}
		from := env.Header.From
		if from < first || from > next || plain && from != seq {
			t.Fatalf("cursor %q: replay from %d, window [%d, %d]", cursor, from, first, next)
		}
		for seq := from; seq < next; seq++ {
			if !sc.Scan() || !bytes.Equal(append(sc.Bytes(), '\n'), js.window[seq-first]) {
				t.Fatalf("cursor %q: line for seq %d is %q, want the window's %q", cursor, seq, sc.Bytes(), js.window[seq-first])
			}
		}
		if !sc.Scan() || !bytes.Equal(append(sc.Bytes(), '\n'), js.final) {
			t.Fatalf("cursor %q: after seq %d comes %q, want the final record", cursor, next-1, sc.Bytes())
		}
		if sc.Scan() {
			t.Fatalf("cursor %q: %q after the final record", cursor, sc.Bytes())
		}
	})
}

// decimal reports whether s is a run of ASCII digits short enough to be a
// seq, and its value.
func decimal(s string) (bool, int) {
	if s == "" || len(s) > 9 {
		return false, 0
	}
	v := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false, 0
		}
		v = 10*v + int(s[i]-'0')
	}
	return true, v
}
