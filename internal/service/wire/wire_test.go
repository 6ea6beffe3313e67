// Codec tests: the binary dataset format must round-trip the arena
// spine exactly — spans, digests, plan, flags — and fail cleanly on
// truncated or hostile payloads instead of over-allocating.

package wire

import (
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func encodedPayload(t *testing.T) []byte {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "wire", GenomeLen: 30000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 600,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 400, Seed: 9, MaxComparisons: 20,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceWireRoundTrip(t *testing.T) {
	d := synth.Reads(synth.ReadsSpec{
		Name: "wire", GenomeLen: 30000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 600,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 400, Seed: 9, MaxComparisons: 20,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Protein != d.Protein {
		t.Fatalf("metadata drift: %q/%v vs %q/%v", got.Name, got.Protein, d.Name, d.Protein)
	}
	wantArena, wantPlan := d.Spine()
	gotArena, gotPlan := got.Spine()
	if gotArena.Len() != wantArena.Len() {
		t.Fatalf("arena length %d, want %d", gotArena.Len(), wantArena.Len())
	}
	for i := 0; i < wantArena.Len(); i++ {
		// Digest equality is the load-bearing property: routing keys and
		// result-cache identity both hang off it.
		if gotArena.Digest(i) != wantArena.Digest(i) {
			t.Fatalf("sequence %d digest drifted across the wire", i)
		}
		if string(gotArena.Seq(i)) != string(wantArena.Seq(i)) {
			t.Fatalf("sequence %d bytes drifted across the wire", i)
		}
	}
	if gotPlan.Len() != wantPlan.Len() {
		t.Fatalf("plan rows %d, want %d", gotPlan.Len(), wantPlan.Len())
	}
	for i := 0; i < wantPlan.Len(); i++ {
		for c, col := range [][]int32{gotPlan.H, gotPlan.V, gotPlan.SeedH, gotPlan.SeedV, gotPlan.SeedLen} {
			want := [][]int32{wantPlan.H, wantPlan.V, wantPlan.SeedH, wantPlan.SeedV, wantPlan.SeedLen}[c]
			if col[i] != want[i] {
				t.Fatalf("plan row %d column %d drifted: %d vs %d", i, c, col[i], want[i])
			}
		}
	}

	// Canonical encoding: re-encoding the decoded dataset reproduces the
	// payload byte for byte.
	p2, err := EncodeDataset(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("encoding is not canonical: decode→encode changed bytes")
	}
}

func TestServiceWireRejectsCorruption(t *testing.T) {
	p := encodedPayload(t)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XDW9"), p[4:]...),
		"truncated":  p[:len(p)/2],
		"trailing":   append(append([]byte{}, p...), 0xFF),
		"magic only": p[:4],
		"cut varint": p[:5],
	}
	for name, payload := range cases {
		if _, err := DecodeDataset(payload); err == nil {
			t.Fatalf("%s payload decoded without error", name)
		} else if !strings.Contains(err.Error(), "wire") {
			t.Fatalf("%s: error %q lost the wire prefix", name, err)
		}
	}
	// The encode side of the same contract: a Dataset no constructor built
	// has no spine to serialize, and says so instead of panicking.
	if _, err := EncodeDataset(&workload.Dataset{Name: "zero"}); err == nil {
		t.Fatal("a spine-less dataset encoded")
	}
}

// TestServiceWireHostileCounts: a payload claiming absurd element counts
// must fail the bounds check, not attempt the allocation.
func TestServiceWireHostileCounts(t *testing.T) {
	// Minimal hand-built payload: magic, flags 0, empty name, empty
	// slab, then a refs count of 2^40 the remaining zero bytes cannot
	// possibly hold.
	hostile := []byte{'X', 'D', 'W', '1', 0, 0, 0}
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
	if _, err := DecodeDataset(hostile); err == nil {
		t.Fatal("hostile refs count decoded without error")
	}
}

// u32le appends v little-endian — for hand-building golden payloads.
func u32le(p []byte, v uint32) []byte {
	return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func multiSlabDataset(t *testing.T) *workload.Dataset {
	t.Helper()
	a := workload.NewArena(0, 4)
	a.SetMaxSlabBytes(8)
	for _, s := range []string{"AAAACCCC", "GGGGTTTT", "ACGTACGT", "TTTTAAAA"} {
		a.Append([]byte(s))
	}
	if a.NumSlabs() != 4 {
		t.Fatalf("fixture spine has %d slabs, want 4", a.NumSlabs())
	}
	d := a.NewDataset("multi", workload.PlanOf([]workload.Comparison{
		{H: 0, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4},
		{H: 2, V: 3, SeedH: 0, SeedV: 0, SeedLen: 4},
	}), false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestServiceWireSingleSlabStaysXDW1: single-slab spines must keep the
// version-1 framing so every pre-spine payload stays byte-identical.
func TestServiceWireSingleSlabStaysXDW1(t *testing.T) {
	p := encodedPayload(t)
	if string(p[:4]) != "XDW1" {
		t.Fatalf("single-slab payload framed as %q, want XDW1", p[:4])
	}
}

func TestServiceWireMultiSlabRoundTrip(t *testing.T) {
	d := multiSlabDataset(t)
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(p[:4]) != "XDW2" {
		t.Fatalf("multi-slab payload framed as %q, want XDW2", p[:4])
	}
	got, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	wantArena, wantPlan := d.Spine()
	gotArena, gotPlan := got.Spine()
	if gotArena.NumSlabs() != wantArena.NumSlabs() {
		t.Fatalf("decoded spine has %d slabs, want %d", gotArena.NumSlabs(), wantArena.NumSlabs())
	}
	if gotArena.Len() != wantArena.Len() || gotPlan.Len() != wantPlan.Len() {
		t.Fatalf("decoded %d seqs / %d rows, want %d / %d",
			gotArena.Len(), gotPlan.Len(), wantArena.Len(), wantPlan.Len())
	}
	for i := 0; i < wantArena.Len(); i++ {
		if gotArena.Ref(i) != wantArena.Ref(i) {
			t.Fatalf("seq %d span drifted: %+v vs %+v", i, gotArena.Ref(i), wantArena.Ref(i))
		}
		if gotArena.Digest(i) != wantArena.Digest(i) {
			t.Fatalf("seq %d digest drifted across the wire", i)
		}
		if string(gotArena.Seq(i)) != string(wantArena.Seq(i)) {
			t.Fatalf("seq %d bytes drifted across the wire", i)
		}
	}
	// Canonical: decode→encode reproduces the payload byte for byte.
	p2, err := EncodeDataset(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("XDW2 encoding is not canonical: decode→encode changed bytes")
	}
}

// TestServiceWireXDW1GoldenDecode pins version-1 decode compatibility with
// a hand-rolled byte payload — independent of the current encoder, so an
// encoder change can never silently redefine what old senders mean.
func TestServiceWireXDW1GoldenDecode(t *testing.T) {
	p := []byte{'X', 'D', 'W', '1', 0}
	p = append(p, 1, 'g')                       // name "g"
	p = append(p, 8)                            // slab length
	p = append(p, "AAAACCCC"...)                // slab bytes
	p = append(p, 2)                            // ref count
	p = u32le(u32le(p, 0), 4)                   // ref 0: off 0 len 4
	p = u32le(u32le(p, 4), 4)                   // ref 1: off 4 len 4
	p = append(p, 1)                            // plan rows
	for _, v := range []uint32{0, 1, 0, 0, 4} { // H V SeedH SeedV SeedLen columns
		p = u32le(p, v)
	}
	d, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "g" || d.Protein {
		t.Fatalf("golden metadata: %q/%v", d.Name, d.Protein)
	}
	arena, plan := d.Spine()
	if arena.Len() != 2 || string(arena.Seq(0)) != "AAAA" || string(arena.Seq(1)) != "CCCC" {
		t.Fatalf("golden pool corrupt: %d seqs", arena.Len())
	}
	if arena.NumSlabs() != 1 {
		t.Fatalf("golden decoded to %d slabs", arena.NumSlabs())
	}
	if plan.Len() != 1 || plan.At(0) != (workload.Comparison{H: 0, V: 1, SeedLen: 4}) {
		t.Fatalf("golden plan corrupt: %+v", plan.At(0))
	}
	// And the golden is canonical: re-encoding reproduces it exactly.
	p2, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("re-encoding the XDW1 golden changed bytes")
	}
}

func TestServiceWireMultiSlabRejectsCorruption(t *testing.T) {
	d := multiSlabDataset(t)
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated mid-slab": p[:9],
		"truncated mid-refs": p[:len(p)-30],
		"trailing":           append(append([]byte{}, p...), 0xAB),
	}
	for name, payload := range cases {
		if _, err := DecodeDataset(payload); err == nil {
			t.Fatalf("%s payload decoded without error", name)
		} else if !strings.Contains(err.Error(), "wire") {
			t.Fatalf("%s: error %q lost the wire prefix", name, err)
		}
	}
}

// TestServiceWireHostileSlabCount: an XDW2 payload claiming 2^40 slabs
// must fail the bounds check before any per-slab allocation.
func TestServiceWireHostileSlabCount(t *testing.T) {
	hostile := []byte{'X', 'D', 'W', '2', 0, 0}                   // magic, flags, empty name
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40 slabs
	if _, err := DecodeDataset(hostile); err == nil {
		t.Fatal("hostile slab count decoded without error")
	}
}

// TestServiceWireRejectsOutOfRangeSlabIndex: a span naming a slab the
// payload never shipped must fail restore, not index out of bounds.
func TestServiceWireRejectsOutOfRangeSlabIndex(t *testing.T) {
	p := []byte{'X', 'D', 'W', '2', 0, 0} // magic, flags, empty name
	p = append(p, 1, 4)                   // 1 slab, 4 bytes
	p = append(p, "AAAA"...)
	p = append(p, 1)          // 1 ref
	p = u32le(p, 7)           // slab 7 of a 1-slab payload
	p = u32le(u32le(p, 0), 4) // off 0 len 4
	p = append(p, 0)          // empty plan
	if _, err := DecodeDataset(p); err == nil {
		t.Fatal("out-of-range slab index decoded without error")
	} else if !strings.Contains(err.Error(), "wire") {
		t.Fatalf("error %q lost the wire prefix", err)
	}
}

// spanOverflowPayload is a 21-byte XDW1 body whose one span is
// (off 0x7fffffff, len 1): the int32 sum wraps negative, which once passed
// the restore bounds check and panicked the slab slice.
func spanOverflowPayload() []byte {
	p := []byte{'X', 'D', 'W', '1', 0, 0} // magic, flags, empty name
	p = append(p, 4)                      // slab length
	p = append(p, "ACGT"...)
	p = append(p, 1)                   // ref count
	p = u32le(u32le(p, 0x7fffffff), 1) // off MaxInt32, len 1
	return append(p, 0)                // empty plan
}

// TestServiceWireRejectsSpanOverflow: the span's end must be checked
// without int32 overflow — this body is reachable from POST /v1/jobs.
func TestServiceWireRejectsSpanOverflow(t *testing.T) {
	if _, err := DecodeDataset(spanOverflowPayload()); err == nil {
		t.Fatal("span with off+len overflowing int32 decoded without error")
	} else if !strings.Contains(err.Error(), "wire") {
		t.Fatalf("error %q lost the wire prefix", err)
	}
}

// sameDataset fails unless two decoded datasets carry the same spine
// (spans, bytes, digests) and plan.
func sameDataset(t *testing.T, got, want *workload.Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Protein != want.Protein {
		t.Fatalf("metadata drift: %q/%v vs %q/%v", got.Name, got.Protein, want.Name, want.Protein)
	}
	ga, gp := got.Spine()
	wa, wp := want.Spine()
	if ga.Len() != wa.Len() || gp.Len() != wp.Len() {
		t.Fatalf("%d seqs / %d rows, want %d / %d", ga.Len(), gp.Len(), wa.Len(), wp.Len())
	}
	for i := 0; i < wa.Len(); i++ {
		if ga.Ref(i) != wa.Ref(i) || ga.Digest(i) != wa.Digest(i) || string(ga.Seq(i)) != string(wa.Seq(i)) {
			t.Fatalf("sequence %d drifted: %+v vs %+v", i, ga.Ref(i), wa.Ref(i))
		}
	}
	for i := 0; i < wp.Len(); i++ {
		if gp.At(i) != wp.At(i) {
			t.Fatalf("plan row %d drifted: %+v vs %+v", i, gp.At(i), wp.At(i))
		}
	}
}

// FuzzDecodeDataset: whatever the bytes, the decoder returns a dataset or
// an error — it never panics and never lets a count in the payload size
// an allocation the payload could not back — and a dataset it accepts
// survives encode→decode with the same spine and plan.
func FuzzDecodeDataset(f *testing.F) {
	small := workload.NewArena(0, 2)
	small.Append([]byte("AAAACCCCGGGG"))
	small.Append([]byte("AAAACCCCTTTT"))
	xdw1, err := EncodeDataset(small.NewDataset("s", workload.PlanOf([]workload.Comparison{
		{H: 0, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4},
	}), false))
	if err != nil {
		f.Fatal(err)
	}
	multi := workload.NewArena(0, 2)
	multi.SetMaxSlabBytes(8)
	multi.Append([]byte("AAAACCCC"))
	multi.Append([]byte("GGGGTTTT"))
	xdw2, err := EncodeDataset(multi.NewDataset("m", workload.PlanOf([]workload.Comparison{
		{H: 0, V: 1, SeedH: 0, SeedV: 0, SeedLen: 4},
	}), true))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xdw1)
	f.Add(xdw2)
	f.Add(spanOverflowPayload())

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := DecodeDataset(p)
		runtime.ReadMemStats(&after)
		// An honest body costs at most ~20× its size (an all-spans payload:
		// digest and two map entries per 8 wire bytes); the slack absorbs
		// the fuzz engine's own goroutines. An unchecked count allocates
		// orders beyond both.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(p)+1<<20); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d B (limit %d)", len(p), grew, limit)
		}
		if err != nil {
			return
		}
		p2, err := EncodeDataset(d)
		if err != nil {
			t.Fatalf("re-encoding an accepted dataset: %v", err)
		}
		d2, err := DecodeDataset(p2)
		if err != nil {
			t.Fatalf("decoding the re-encoded dataset: %v", err)
		}
		sameDataset(t, d2, d)
	})
}

// setNonZero gives every scalar field of v (embedded structs included) a
// distinct non-zero value.
func setNonZero(v reflect.Value, next *int) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			setNonZero(f, next)
		case reflect.Float64:
			*next++
			f.SetFloat(float64(*next) + 0.5)
		default:
			*next++
			f.SetInt(int64(*next))
		}
	}
}

// TestReportWireKeys pins the final record's report object: clients in
// other languages read these 30 keys, and the struct behind them is now
// assembled by embedding — a renamed, retagged or newly exported field
// must show up here, not in someone's dashboard.
func TestReportWireKeys(t *testing.T) {
	var sum ReportSummary
	n := 0
	setNonZero(reflect.ValueOf(&sum).Elem(), &n)
	line, err := json.Marshal(Final{Report: &sum})
	if err != nil {
		t.Fatal(err)
	}
	var obj struct {
		Report map[string]float64 `json:"report"`
	}
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"antidiags", "batches", "cacheHits", "cacheMisses", "cells", "clamped",
		"dedupedComparisons", "deviceComputeSeconds", "hostBytesIn", "hostBytesOut",
		"ipus", "maxSRAM", "narrowExtensions", "partialFailures", "peakTracebackBytes",
		"promotedExtensions", "races", "reuseFactor", "skippedTheoreticalCells",
		"stealOps", "sumBand", "theoreticalCells", "traceSkippedExtensions",
		"tracebackBytes", "tracedExtensions", "transferSeconds", "uniqueExtensions",
		"uniqueSeqBytesIn", "wallSeconds", "wideExtensions",
	}
	var got []string
	for k, v := range obj.Report {
		if v == 0 {
			t.Errorf("key %q carries zero for a non-zero field", k)
		}
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("final.report keys changed:\n got %q\nwant %q", got, want)
	}

	// And the keys carry the values back: the client's report is the
	// server's, field for field (DedupSkippedJobs stays off the wire).
	var back Final
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	sum.DedupSkippedJobs = 0
	if *back.Report != sum {
		t.Fatalf("report did not round-trip:\n got %+v\nwant %+v", *back.Report, sum)
	}
}
