package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/oracle"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// tbVariants enumerates the kernel configurations the differential
// oracle covers: the linear-gap variants, including a δb small enough to
// clamp.
func tbVariants() map[string]Params {
	dna := scoring.DNADefault
	return map[string]Params{
		"restricted2":         {Scorer: dna, Gap: -1, X: 15, Algo: AlgoRestricted2},
		"restricted2-db256":   {Scorer: dna, Gap: -1, X: 15, DeltaB: 256, Algo: AlgoRestricted2},
		"restricted2-clamped": {Scorer: dna, Gap: -1, X: 25, DeltaB: 8, Algo: AlgoRestricted2},
		"standard3":           {Scorer: dna, Gap: -1, X: 15, Algo: AlgoStandard3},
		"restricted2-blosum":  {Scorer: scoring.Blosum62, Gap: -2, X: 49, Algo: AlgoRestricted2},
	}
}

// checkSeedTraceback runs the full differential oracle for one workload
// and parameter set: both sides' second-pass Traces must equal the naive
// replay oracle's in every field (oracle_test.go), the traceback must
// bit-match the score-only kernel (score and end points), the emitted
// CIGAR must validate and
// consume exactly the aligned spans, and re-scoring the CIGAR over the
// aligned fragments (alignment.ScoreOf — an independent recomputation)
// must reproduce the kernel score exactly. For unclamped linear variants
// the score is additionally pinned to the X-Drop oracle (internal/oracle).
func checkSeedTraceback(t *testing.T, h, v []byte, s Seed, p Params, label string) {
	t.Helper()
	checkSidesMatchOracle(t, h, v, s, p, label)
	var ws Workspace
	want, err := ws.ExtendSeed(h, v, s, p)
	if err != nil {
		t.Fatalf("%s: ExtendSeed: %v", label, err)
	}
	got, aln, err := ws.TracebackSeed(h, v, s, p)
	if err != nil {
		t.Fatalf("%s: TracebackSeed: %v", label, err)
	}
	if got.Score != want.Score || got.LeftScore != want.LeftScore || got.RightScore != want.RightScore {
		t.Fatalf("%s: traceback scores (%d,%d,%d) != kernel (%d,%d,%d)", label,
			got.Score, got.LeftScore, got.RightScore, want.Score, want.LeftScore, want.RightScore)
	}
	if got.BegH != want.BegH || got.BegV != want.BegV || got.EndH != want.EndH || got.EndV != want.EndV {
		t.Fatalf("%s: traceback span [%d,%d)x[%d,%d) != kernel [%d,%d)x[%d,%d)", label,
			got.BegH, got.EndH, got.BegV, got.EndV, want.BegH, want.EndH, want.BegV, want.EndV)
	}
	if err := aln.Validate(); err != nil {
		t.Fatalf("%s: emitted alignment invalid: %v (cigar %q)", label, err, aln.Cigar)
	}
	recon, err := alignment.ScoreOf(h[aln.BegH:aln.EndH], v[aln.BegV:aln.EndV], aln.Cigar,
		p.Scorer, p.Gap, p.GapOpen)
	if err != nil {
		t.Fatalf("%s: score reconstruction: %v (cigar %q)", label, err, aln.Cigar)
	}
	if recon != want.Score {
		t.Fatalf("%s: reconstructed score %d != kernel score %d (cigar %q)", label, recon, want.Score, aln.Cigar)
	}
	// Unclamped variants must also agree with the oracle.
	if !got.Stats.Clamped {
		ref := oracle.Seed(h, v, s.H, s.V, s.Len, p.Scorer.Table(), p.Gap, p.X)
		if want.Score != ref.Score {
			t.Fatalf("%s: kernel score %d != oracle %d", label, want.Score, ref.Score)
		}
		if recon != ref.Score {
			t.Fatalf("%s: reconstructed score %d != oracle %d", label, recon, ref.Score)
		}
	}
}

// TestTracebackDifferentialOracle is the seeded table-driven half of the
// differential test layer: randomized seed-and-extend workloads across
// every variant, mutation rate and size class.
func TestTracebackDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for name, p := range tbVariants() {
		for _, size := range []int{40, 200, 700} {
			for _, rate := range []float64{0.02, 0.15, 0.35} {
				for it := 0; it < 4; it++ {
					h := randDNA(rng, size)
					v := mutate(rng, h, rate)
					k := 9
					if k > len(v) {
						k = len(v)
					}
					// Plant an exact seed so extension anchors are valid.
					sH := rng.Intn(len(h) - k + 1)
					sV := rng.Intn(len(v) - k + 1)
					copy(v[sV:sV+k], h[sH:sH+k])
					s := Seed{H: sH, V: sV, Len: k}
					checkSeedTraceback(t, h, v, s, p, name)
				}
			}
		}
	}
}

// TestTracebackExtensionMatchesAlign checks the single-extension entry
// point on forward views, including zero-length and empty-sequence edges.
func TestTracebackExtensionMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, p := range tbVariants() {
		for _, mn := range [][2]int{{0, 0}, {0, 17}, {17, 0}, {1, 1}, {33, 29}, {250, 260}} {
			h := randDNA(rng, mn[0])
			v := mutate(rng, h, 0.2)
			for len(v) < mn[1] {
				v = append(v, randDNA(rng, mn[1]-len(v))...)
			}
			v = v[:mn[1]]
			var ws Workspace
			want := Align(NewView(h), NewView(v), p)
			tr, err := ws.TracebackExtension(NewView(h), NewView(v), p)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mn, err)
			}
			if tr.Score != want.Score || tr.EndH != want.EndH || tr.EndV != want.EndV {
				t.Fatalf("%s %v: traceback (%d,%d,%d) != kernel (%d,%d,%d)",
					name, mn, tr.Score, tr.EndH, tr.EndV, want.Score, want.EndH, want.EndV)
			}
			st, err := tr.Cigar.Stats()
			if err != nil {
				t.Fatalf("%s %v: cigar %q: %v", name, mn, tr.Cigar, err)
			}
			if st.SpanH != tr.EndH || st.SpanV != tr.EndV {
				t.Fatalf("%s %v: cigar %q spans %dx%d, extension consumed %dx%d",
					name, mn, tr.Cigar, st.SpanH, st.SpanV, tr.EndH, tr.EndV)
			}
			recon, err := alignment.ScoreOf(h[:tr.EndH], v[:tr.EndV], tr.Cigar, p.Scorer, p.Gap, p.GapOpen)
			if err != nil || recon != want.Score {
				t.Fatalf("%s %v: reconstructed %d (err %v), kernel %d (cigar %q)",
					name, mn, recon, err, want.Score, tr.Cigar)
			}
			if tr.Clamped != want.Stats.Clamped {
				t.Fatalf("%s %v: replay clamped=%v, kernel clamped=%v", name, mn, tr.Clamped, want.Stats.Clamped)
			}
		}
	}
}

// TestTracebackMemoryBoundedByBand pins the space story: the recorded
// trace footprint must stay bounded by antidiagonals × band, far below
// the O(m·n) score matrix, and a δb-clamped Restricted2 run must bound
// the per-antidiagonal storage by δb.
func TestTracebackMemoryBoundedByBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randDNA(rng, 3000)
	v := mutate(rng, h, 0.15)
	const deltaB = 64
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 20, DeltaB: deltaB, Algo: AlgoRestricted2}
	var ws Workspace
	res := ws.ExtendRight(h, v, 0, 0, p)
	tr, err := ws.TracebackRight(h, v, 0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score != res.Score {
		t.Fatalf("traceback score %d != kernel %d", tr.Score, res.Score)
	}
	// 2 bits per cell over ≤ δb-wide windows, plus 8 index bytes per
	// antidiagonal and the one-element offs slack.
	bound := res.Stats.Antidiagonals*(deltaB/4+8) + 16
	if tr.TraceBytes > bound {
		t.Fatalf("trace bytes %d exceed the band bound %d", tr.TraceBytes, bound)
	}
	full := (len(h) + 1) * (len(v) + 1) * 4
	if tr.TraceBytes*20 > full {
		t.Fatalf("trace bytes %d are not far below the %d-byte full matrix", tr.TraceBytes, full)
	}
}

// TestTracebackSecondPassAllocs pins the second pass's allocation
// profile: it is the recording sweep with the Result dropped, so a warm
// TracebackRight allocates no more than a warm FusedExtendRight — the
// encoded CIGAR only, never DP rows or direction buffers.
func TestTracebackSecondPassAllocs(t *testing.T) {
	h, v := benchKernelPair(1200, 0.06)
	for name, p := range tbVariants() {
		var ws Workspace
		if _, _, err := ws.FusedExtendRight(h, v, 0, 0, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fused := testing.AllocsPerRun(10, func() {
			if _, _, err := ws.FusedExtendRight(h, v, 0, 0, p); err != nil {
				t.Fatal(err)
			}
		})
		second := testing.AllocsPerRun(10, func() {
			if _, err := ws.TracebackRight(h, v, 0, 0, p); err != nil {
				t.Fatal(err)
			}
		})
		if second > fused {
			t.Errorf("%s: warm TracebackRight allocates %.0f objects, warm FusedExtendRight %.0f", name, second, fused)
		}
		// One allocation per CIGAR: the tracer's builder keeps its buffer,
		// so only the returned string is new.
		if fused > 1 {
			t.Errorf("%s: warm FusedExtendRight allocates %.0f objects, want the CIGAR string only", name, fused)
		}
		// A whole comparison joins both sides' runs into one string too.
		s := Seed{H: 600, V: 600, Len: 1}
		seed := testing.AllocsPerRun(10, func() {
			if _, _, err := ws.TracebackSeed(h, v, s, p); err != nil {
				t.Fatal(err)
			}
		})
		if seed > 1 {
			t.Errorf("%s: warm TracebackSeed allocates %.0f objects, want the CIGAR string only", name, seed)
		}
	}
}

// TestPackRowMatchesSetCode pins packRow — eight codes per step, then
// four, then single cells — to setCode cell by cell, for every alignment
// of the window's first cell within its byte and every width through five
// 8-code steps. dirs starts as 0xFF, so a head or tail byte stored whole
// instead of masked shows in a neighbouring cell.
func TestPackRowMatchesSetCode(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for base := int32(8); base < 12; base++ {
		for width := 0; width <= 40; width++ {
			codes := make([]byte, width)
			for i := range codes {
				codes[i] = byte(rng.Intn(4))
			}
			fresh := func() tracer {
				tb := tracer{dirs: make([]byte, 32)}
				for i := range tb.dirs {
					tb.dirs[i] = 0xff
				}
				return tb
			}
			packed, want := fresh(), fresh()
			packed.packRow(base, codes)
			for k, c := range codes {
				want.setCode(base, k, c)
			}
			if string(packed.dirs) != string(want.dirs) {
				t.Fatalf("base %d width %d:\n packRow %x\n setCode %x", base, width, packed.dirs, want.dirs)
			}
		}
	}
}

// TestTraceWalkRepricesPath: the walk is the recording's run-time check.
// One on-path direction code flipped from diagonal to up leaves a path
// that still walks to the origin through recorded cells but prices to
// less than the sweep's score, and the walk must say so with the
// re-price error — not ErrTraceTooLarge, which would only degrade one
// comparison instead of failing its batch.
func TestTraceWalkRepricesPath(t *testing.T) {
	h := randDNA(rand.New(rand.NewSource(29)), 60)
	hv, vv := NewView(h), NewView(h)
	p := tbVariants()["restricted2"]
	var ws Workspace
	r, _, err := ws.record(hv, vv, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.EndH != len(h) || r.EndV != len(h) {
		t.Fatalf("identical views ended at (%d,%d), want the full diagonal", r.EndH, r.EndV)
	}
	tb := &ws.tb
	walk := func() error {
		_, err := tb.walkLinear(hv, vv, p, r.Score, r.EndH, r.EndH+r.EndV, nil)
		return err
	}
	if err := walk(); err != nil {
		t.Fatalf("unmodified walk: %v", err)
	}
	const i = 30 // cell (30, 30) on antidiagonal 60
	d, k := 2*i, i-int(tb.cls[2*i])
	if c, err := tb.code(d, i); err != nil || c != codeDiag {
		t.Fatalf("cell (%d,%d) code %d (err %v), want diagonal", i, i, c, err)
	}
	tb.setCode(tb.offs[d], k, codeUp)
	err = walk()
	if !errors.Is(err, errTraceMispriced) || errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("walk over a flipped code returned %v, want the re-price error", err)
	}
}

// FuzzTracebackOracle is the fuzzing half of the differential layer:
// arbitrary bytes become a workload (sequences, seed geometry, variant,
// penalties) and every invariant of the table-driven oracle must hold.
func FuzzTracebackOracle(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("ACGTACGTTCGTACGT"), uint8(0), uint8(4), uint8(15))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACATTACAGA"), uint8(3), uint8(2), uint8(7))
	f.Add([]byte("AAAAAAAAAA"), []byte("TTTTTTTTTT"), uint8(1), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, hb, vb []byte, mode, geom, xb uint8) {
		if len(hb) == 0 || len(vb) == 0 || len(hb) > 300 || len(vb) > 300 {
			return
		}
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: int(xb)}
		switch mode % 3 {
		case 0:
			p.Algo = AlgoRestricted2
		case 1:
			p.Algo = AlgoRestricted2
			p.DeltaB = 4 + int(geom)%32
		case 2:
			p.Algo = AlgoStandard3
		}
		k := 1 + int(geom)%5
		if k > len(hb) || k > len(vb) {
			k = min(len(hb), len(vb))
		}
		sH := int(geom) * 7 % (len(hb) - k + 1)
		sV := int(xb) * 5 % (len(vb) - k + 1)
		s := Seed{H: sH, V: sV, Len: k}

		checkSidesMatchOracle(t, hb, vb, s, p, "fuzz")
		var ws Workspace
		want, err := ws.ExtendSeed(hb, vb, s, p)
		if err != nil {
			t.Fatal(err)
		}
		got, aln, err := ws.TracebackSeed(hb, vb, s, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || got.BegH != want.BegH || got.BegV != want.BegV ||
			got.EndH != want.EndH || got.EndV != want.EndV {
			t.Fatalf("traceback %+v != kernel %+v", got, want)
		}
		if err := aln.Validate(); err != nil {
			t.Fatalf("invalid alignment: %v (cigar %q)", err, aln.Cigar)
		}
		recon, err := alignment.ScoreOf(hb[aln.BegH:aln.EndH], vb[aln.BegV:aln.EndV], aln.Cigar,
			p.Scorer, p.Gap, p.GapOpen)
		if err != nil {
			t.Fatalf("score reconstruction: %v (cigar %q)", err, aln.Cigar)
		}
		if recon != want.Score {
			t.Fatalf("reconstructed score %d != kernel %d (cigar %q)", recon, want.Score, aln.Cigar)
		}
		if !want.Stats.Clamped {
			if ref := oracle.Seed(hb, vb, sH, sV, k, p.Scorer.Table(), p.Gap, p.X); want.Score != ref.Score {
				t.Fatalf("kernel score %d != oracle %d", want.Score, ref.Score)
			}
		}
	})
}

// TestRecordRunsContract pins what RecordLeft/Right hand the tile: the
// walked path appended after whatever the buffer held, as maximal runs
// (positive lengths, no two neighbours with one op), which encode to the
// Cigar TracebackLeft/Right return — in walk order for the left side,
// back to front for the right. A recording that fails hands the buffer
// back as it came.
func TestRecordRunsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	prefix := []alignment.Run{{Op: alignment.OpMatch, Len: 7}}
	for name, p := range tbVariants() {
		for trial := 0; trial < 6; trial++ {
			h := randDNA(rng, 150+rng.Intn(150))
			v := mutate(rng, h, 0.12)
			hOff, vOff := rng.Intn(len(h)+1), rng.Intn(len(v)+1)
			var ws Workspace
			for _, side := range []struct {
				record func(*Workspace, []byte, []byte, int, int, Params, []alignment.Run) (Result, Trace, []alignment.Run, error)
				trace  func(*Workspace, []byte, []byte, int, int, Params) (Trace, error)
				rev    bool
			}{
				{(*Workspace).RecordLeft, (*Workspace).TracebackLeft, false},
				{(*Workspace).RecordRight, (*Workspace).TracebackRight, true},
			} {
				want, err := side.trace(&ws, h, v, hOff, vOff, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				buf := append(make([]alignment.Run, 0, 4), prefix...)
				_, tr, runs, err := side.record(&ws, h, v, hOff, vOff, p, buf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if runs[0] != prefix[0] {
					t.Fatalf("%s: the buffer's own runs were overwritten: %v", name, runs[0])
				}
				walked := runs[len(prefix):]
				for k, r := range walked {
					if r.Len <= 0 || k > 0 && walked[k-1].Op == r.Op {
						t.Fatalf("%s: runs %v are not maximal at %d", name, walked, k)
					}
				}
				var b alignment.Builder
				appendRuns(&b, walked, side.rev)
				if got := b.Cigar(); got != want.Cigar {
					t.Fatalf("%s: runs encode to %q, the public entry point returns %q", name, got, want.Cigar)
				}
				if tr.Cigar != "" || tr.Score != want.Score || tr.EndH != want.EndH || tr.EndV != want.EndV {
					t.Fatalf("%s: recorded trace %+v, public %+v", name, tr, want)
				}

				restore := SetTraceCellCapForTest(1)
				_, _, failed, err := side.record(&ws, h, v, hOff, vOff, p, buf)
				restore()
				empty := hOff == 0 && vOff == 0 // the side holds antidiagonal 0 alone
				if side.rev {
					empty = hOff == len(h) && vOff == len(v)
				}
				if !empty && !errors.Is(err, ErrTraceTooLarge) {
					t.Fatalf("%s: a 1-cell cap returned %v, want ErrTraceTooLarge", name, err)
				}
				if err != nil && (len(failed) != len(buf) || &failed[0] != &buf[0]) {
					t.Fatalf("%s: a failed recording returned %d runs, want the buffer's %d", name, len(failed), len(buf))
				}
			}
		}
	}
}
