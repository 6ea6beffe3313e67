package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// This file is the direction store and the opt-in second pass of the
// two-pass traceback scheme: the score pass (linear.go, affine.go) stays
// exactly as it is — branch-specialized, allocation-free, no per-cell
// bookkeeping — and when a caller asks for edit operations the extension
// is swept once more by the recording sweep (fused.go), whose Trace is
// kept and whose Result is dropped.
//
// The recording sweep reproduces each variant's window semantics bit for
// bit (same antidiagonal windows, the same δb clamp re-centred on the
// previous row's best cell, the same X-Drop pruning in int32 arithmetic,
// the same first-wins tie-breaking), so its Score/EndH/EndV must equal
// the score pass's — the differential oracle tests pin that per variant
// against a naive replay kept in the test build. At run time every
// recording checks itself: the walk re-prices the path it follows and
// fails unless the price is the sweep's score.
//
// Memory stays in the paper's SRAM discipline: instead of materialising
// the O(m·n) score matrix, a recording holds only direction codes over
// the banded antidiagonal windows — 2 bits per computed cell — plus one
// window descriptor per antidiagonal. Peak traceback memory is therefore
// bounded by (antidiagonals × band)/4 bytes, with the band clamped to δb
// for Restricted2, never by the full matrix. The codes are packed where
// they are computed: the vector row writes its cells' bits into dirs
// itself, the Go loop through packRow, the boundary cells through
// setCode — one layout, setCode's.

// Trace direction codes, 2 bits per cell.
const (
	codeNone byte = 0 // pruned cell / origin
	codeDiag byte = 1 // from (i-1, j-1): consumes one symbol of each
	codeUp   byte = 2 // from (i-1, j): consumes H only ('I')
	codeLeft byte = 3 // from (i, j-1): consumes V only ('D')
)

// tracer is the workspace state of a direction recording: the
// per-antidiagonal window index and the packed direction codes (the DP
// rows are the workspace's wide score buffers). Buffers are reused across
// recordings; peak footprint is reported per extension as
// Trace.TraceBytes.
type tracer struct {
	cls  []int32           // window start per antidiagonal
	offs []int32           // prefix cell counts per antidiagonal (len = diags+1)
	dirs []byte            // packed direction codes
	runs []alignment.Run   // walker scratch of the entry points that return a Cigar
	cig  alignment.Builder // their encoder, kept warm like runs

	// codes is the Go loop's unpacked scratch row: one byte per interior
	// cell, packed into dirs once per antidiagonal (packRow), so the
	// scoring loop never does per-cell read-modify-write on dirs. The
	// vector row packs its own codes and never touches it.
	codes []byte
}

// reset opens a recording of at most diags antidiagonals. The window
// index is sized for all of them here, so beginDiag never grows it.
func (tb *tracer) reset(diags int) {
	if cap(tb.offs) <= diags {
		tb.cls, tb.offs = make([]int32, 0, diags), make([]int32, 0, diags+1)
	}
	tb.cls = tb.cls[:0]
	tb.offs = append(tb.offs[:0], 0)
	tb.dirs = tb.dirs[:0]
}

// maxTraceCells caps the recorded cells of one recording so the int32
// prefix offsets cannot wrap. The fleet path never gets near it (tile
// SRAM bounds extensions first); the direct host API errors cleanly
// instead of corrupting a multi-hundred-MB trace. A variable only so
// SetTraceCellCapForTest can inject a tiny cap.
var maxTraceCells int64 = 1<<31 - 1

// ErrTraceTooLarge reports a traceback recording (either schedule) that
// would exceed the 31-bit cell space (host-API-only; tile extensions
// are SRAM-bounded). Callers distinguish it with errors.Is: it is a
// per-extension resource condition, not a kernel bug, so the kernel
// degrades the one affected comparison instead of failing the batch.
var ErrTraceTooLarge = fmt.Errorf("core: traceback recording exceeds the recordable cell space (extension too large; restrict δb or split the extension)")

// SetTraceCellCapForTest lowers the recording cell cap and returns a
// restore func. Test-only: it lets regression tests force the
// ErrTraceTooLarge path on small inputs. Not safe for concurrent use
// with running kernels.
func SetTraceCellCapForTest(n int64) (restore func()) {
	old := maxTraceCells
	maxTraceCells = n
	return func() { maxTraceCells = old }
}

// beginDiag opens the recording window [cl, cl+width) for the next
// antidiagonal and returns the cell offset its codes start at, or -1
// when the recording would overflow the 31-bit cell space.
func (tb *tracer) beginDiag(cl, width int) int32 {
	d := len(tb.cls)
	base := tb.offs[d]
	if int64(base)+int64(width) > maxTraceCells {
		return -1
	}
	tb.cls, tb.offs = tb.cls[:d+1], tb.offs[:d+2]
	tb.cls[d], tb.offs[d+1] = int32(cl), base+int32(width)
	if need := int(uint(base)+uint(width)+3) >> 2; need > len(tb.dirs) {
		if need <= cap(tb.dirs) {
			// Stale bits from a previous recording are fine: setCode,
			// packRow and the vector row mask in every cell they write, and
			// code() bounds-checks every read
			// (TestRecordingIgnoresStaleDirectionBits).
			tb.dirs = tb.dirs[:need]
		} else {
			tb.dirs = append(tb.dirs, make([]byte, need-len(tb.dirs))...)
		}
	}
	return base
}

// setCode stores the direction code of the k-th cell of the window
// opened at base.
func (tb *tracer) setCode(base int32, k int, code byte) {
	idx := uint(base) + uint(k)
	shift := (idx & 3) * 2
	b := &tb.dirs[idx>>2]
	*b = *b&^(3<<shift) | code<<shift
}

// code reads the direction code of cell i on antidiagonal d, or an error
// when (d, i) lies outside the recorded windows (a corrupt trace).
func (tb *tracer) code(d, i int) (byte, error) {
	if d < 0 || d >= len(tb.cls) {
		return 0, fmt.Errorf("core: traceback walked off the recorded antidiagonals (d=%d of %d)", d, len(tb.cls))
	}
	cl := int(tb.cls[d])
	width := int(tb.offs[d+1] - tb.offs[d])
	if i < cl || i >= cl+width {
		return 0, fmt.Errorf("core: traceback cell (d=%d, i=%d) outside recorded window [%d,%d)", d, i, cl, cl+width)
	}
	idx := uint(tb.offs[d]) + uint(i-cl)
	return tb.dirs[idx>>2] >> ((idx & 3) * 2) & 3, nil
}

// traceBytes is the recording's exact byte footprint: packed codes plus
// the per-antidiagonal window index.
func (tb *tracer) traceBytes() int {
	return len(tb.dirs) + 4*len(tb.cls) + 4*len(tb.offs)
}

// retainBytes is the high-water threshold above which a workspace
// releases a buffer instead of keeping it warm (tracer.trim for the
// recording buffers, Workspace.Trim for the rest). Workspaces are pooled
// for the engine's lifetime, so without the cap one outlier extension
// would pin its worst-case arena on every pooled workspace forever; 1 MiB
// comfortably covers every SRAM-certified tile extension
// (ExtensionTraceBytes tops out well below tile SRAM) while letting
// host-API outliers be returned to the allocator.
const retainBytes = 1 << 20

// runBytes is the size of one walked run.
const runBytes = int(unsafe.Sizeof(alignment.Run{}))

// trim releases recording buffers that grew past retainBytes.
// Called once a recording has been walked — every buffer here is rebuilt
// from scratch by the next recording — and again once an entry point that
// returns a Cigar has handed its runs back as tb.runs.
func (tb *tracer) trim() {
	if cap(tb.dirs) > retainBytes {
		tb.dirs = nil
	}
	if cap(tb.offs)*4 > retainBytes {
		tb.cls, tb.offs = nil, nil // reset sizes the two together
	}
	if cap(tb.runs)*runBytes > retainBytes {
		tb.runs, tb.cig = nil, alignment.Builder{}
	}
	if cap(tb.codes) > retainBytes {
		tb.codes = nil
	}
}

// growCodes returns the unpacked per-cell scratch row for one window.
func (tb *tracer) growCodes(n int) []byte {
	if cap(tb.codes) < n {
		tb.codes = make([]byte, n)
	}
	return tb.codes[:n]
}

// packRow packs a run of unpacked codes into dirs starting at cell offset
// base. Head and tail cells that share a byte with cells outside the run
// are read-modify-written; the aligned body is stored whole — eight 2-bit
// codes per 16-bit store, then four per byte — instead of one RMW a cell.
// It is the Go loop's packing, and what the vector row's own packed store
// is tested against.
func (tb *tracer) packRow(base int32, codes []byte) {
	idx := uint(base)
	k := 0
	for ; k < len(codes) && idx&3 != 0; k++ {
		tb.setCode(int32(idx), 0, codes[k])
		idx++
	}
	for ; k+8 <= len(codes); k += 8 {
		// Fold neighbouring codes pairwise, then the pairs, then the quads.
		x := binary.LittleEndian.Uint64(codes[k:])
		x = (x | x>>6) & 0x000f000f000f000f
		x = (x | x>>12) & 0x000000ff000000ff
		binary.LittleEndian.PutUint16(tb.dirs[idx>>2:], uint16(x|x>>24))
		idx += 8
	}
	for ; k+4 <= len(codes); k += 4 {
		tb.dirs[idx>>2] = codes[k] | codes[k+1]<<2 | codes[k+2]<<4 | codes[k+3]<<6
		idx += 4
	}
	for ; k < len(codes); k++ {
		tb.setCode(int32(idx), 0, codes[k])
		idx++
	}
}

// Trace is the outcome of one extension's direction recording.
type Trace struct {
	// Score, EndH and EndV bit-match the score-only kernel's Result for
	// the same views and parameters.
	Score      int
	EndH, EndV int
	// Cigar covers view positions [0,EndH)×[0,EndV). TracebackRight
	// returns it in view-forward order; TracebackLeft returns it in
	// sequence-forward order (the composition order of a left seed
	// extension).
	Cigar alignment.Cigar
	// TraceBytes is the exact peak byte footprint of the recorded
	// direction data for this recording: packed per-cell codes over the
	// banded windows plus the window index — the measured space cost of
	// traceback, bounded by antidiagonals × band, never by m·n.
	TraceBytes int
	// Clamped mirrors the score pass: the δb window clamped at least once.
	Clamped bool
}

// errTraceMispriced reports a walked path whose price under the scoring
// table and gap penalty differs from the sweep's score: a corrupt direction
// code, a kernel bug. It is deliberately not ErrTraceTooLarge, so the tile
// fails its batch loudly instead of degrading one comparison.
var errTraceMispriced = errors.New("core: traceback path does not price to the sweep's score")

// walkLinear follows the recorded directions from the best cell back to
// the origin and appends the path to runs as maximal runs in walk order
// (best → origin). It re-prices the path as it goes — the scoring table on
// diagonal moves, p.Gap on up and left moves — and returns
// errTraceMispriced unless the sum is score. On an error runs comes back
// as it was passed in.
func (tb *tracer) walkLinear(h, v View, p Params, score, bestI, bestD int, runs []alignment.Run) ([]alignment.Run, error) {
	tab := p.Scorer.Table()
	cls, offs, dirs := tb.cls, tb.offs, tb.dirs
	in := len(runs)
	i, j := bestI, bestD-bestI
	// Cursors into the views' bytes: hx holds h.At(i-1) and steps by hs as
	// i steps down, vx holds v.At(j-1) and steps by vs.
	hx, hs := i-1, -1
	if h.rev {
		hx, hs = len(h.data)-i, 1
	}
	vx, vs := j-1, -1
	if v.rev {
		vx, vs = len(v.data)-j, 1
	}
	op, n := alignment.Op(0), 0 // the open run
	price := 0
	for i != 0 || j != 0 {
		// tb.code, inlined: the window test first, the error only on failure.
		d := i + j
		if uint(d) >= uint(len(cls)) || uint(i-int(cls[d])) >= uint(offs[d+1]-offs[d]) {
			_, err := tb.code(d, i)
			return runs[:in], err
		}
		at := uint(offs[d]) + uint(i-int(cls[d]))
		var o alignment.Op
		switch dirs[at>>2] >> ((at & 3) * 2) & 3 {
		case codeDiag:
			a, b := h.data[hx], v.data[vx]
			o = alignment.OpMismatch
			if a == b {
				o = alignment.OpMatch
			}
			price += int(tab[a][b])
			i, hx = i-1, hx+hs
			j, vx = j-1, vx+vs
		case codeUp:
			o = alignment.OpIns
			price += p.Gap
			i, hx = i-1, hx+hs
		case codeLeft:
			o = alignment.OpDel
			price += p.Gap
			j, vx = j-1, vx+vs
		default:
			return runs[:in], fmt.Errorf("core: traceback hit a pruned cell at (i=%d, j=%d)", i, j)
		}
		if o != op {
			if n > 0 {
				runs = append(runs, alignment.Run{Op: op, Len: n})
			}
			op, n = o, 0
		}
		n++
	}
	if n > 0 {
		runs = append(runs, alignment.Run{Op: op, Len: n})
	}
	if price != score {
		return runs[:in], fmt.Errorf("%w: the path from (%d,%d) prices to %d, the sweep scored %d",
			errTraceMispriced, bestI, bestD-bestI, price, score)
	}
	return runs, nil
}

// JoinCigar appends one comparison's columns to b in sequence-forward
// order: the left extension's walked runs as they are (RecordLeft walks
// reversed views), the seed's own columns (seedCigar), then the right
// extension's walked runs back to front (RecordRight walks forward views).
// The builder merges runs at both junctions, so b.Cigar() is the canonical
// CIGAR of the whole comparison.
func JoinCigar(b *alignment.Builder, h, v []byte, s Seed, left, right []alignment.Run) {
	b.AppendRuns(left, false)
	seedCigar(b, h, v, s)
	b.AppendRuns(right, true)
}

// TracebackRight runs the second pass of the right seed extension
// (ExtendRight) — the recording sweep, keeping only its Trace — and
// returns its Cigar in sequence-forward order, which for forward views is
// view-forward order. Score, EndH and EndV bit-match
// Align(NewView(h[hOff:]), NewView(v[vOff:]), p).
func (w *Workspace) TracebackRight(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	_, tr, err := w.record(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
	return tr, err
}

// TracebackLeft runs the second pass of the left seed extension
// (ExtendLeft, reversed views) and returns its Cigar in sequence-forward
// order — for a reversed view that is the walk order itself, so the left
// Cigar concatenates directly in front of the seed.
func (w *Workspace) TracebackLeft(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	_, tr, err := w.record(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
	return tr, err
}

// RecordRight runs the recording sweep of the right seed extension and
// appends its walked path to runs, as maximal runs in walk order (the best
// cell back to the seed: sequence-backward). The Result is
// FusedExtendRight's and the Trace is too, without its Cigar; JoinCigar
// turns the runs into text. On an error runs comes back as passed in.
func (w *Workspace) RecordRight(h, v []byte, hOff, vOff int, p Params, runs []alignment.Run) (Result, Trace, []alignment.Run, error) {
	return w.recordRuns(NewView(h[hOff:]), NewView(v[vOff:]), p, runs)
}

// RecordLeft is RecordRight for the left seed extension (reversed views,
// so walk order is sequence-forward); its Result and Trace are
// FusedExtendLeft's.
func (w *Workspace) RecordLeft(h, v []byte, hOff, vOff int, p Params, runs []alignment.Run) (Result, Trace, []alignment.Run, error) {
	return w.recordRuns(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, runs)
}

// seedCigar appends the '='/'X' columns of the seed region itself to b,
// one Append per run. Exact k-mer seeds yield a single '=' run; quasi-exact
// protein seeds (PASTIS) may contain 'X' columns, which the score
// reconstruction prices through the substitution table like any other
// column.
func seedCigar(b *alignment.Builder, h, v []byte, s Seed) {
	hs, vs := h[s.H:s.H+s.Len], v[s.V:s.V+s.Len]
	for i := 0; i < len(hs); {
		eq := hs[i] == vs[i]
		j := i + 1
		for j < len(hs) && (hs[j] == vs[j]) == eq {
			j++
		}
		op := alignment.OpMismatch
		if eq {
			op = alignment.OpMatch
		}
		b.Append(op, j-i)
		i = j
	}
}

// TracebackSeed runs the traceback pass of a full two-sided seed
// extension: both sides swept with recording, the seed's own columns
// bridged in between. The returned SeedResult carries the scores and
// coordinates only (its Stats are zero — execution traces belong to the
// score pass); the Alignment is the sequence-space result whose
// reconstructed score (alignment.ScoreOf over the aligned fragments)
// bit-matches Score.
func (w *Workspace) TracebackSeed(h, v []byte, s Seed, p Params) (SeedResult, alignment.Alignment, error) {
	if s.Len <= 0 || s.H < 0 || s.V < 0 || s.H+s.Len > len(h) || s.V+s.Len > len(v) {
		return SeedResult{}, alignment.Alignment{}, fmt.Errorf("core: seed %+v out of range for |h|=%d |v|=%d", s, len(h), len(v))
	}
	tb := &w.tb
	_, left, runs, err := w.RecordLeft(h, v, s.H, s.V, p, tb.runs[:0])
	if err != nil {
		return SeedResult{}, alignment.Alignment{}, err
	}
	nl := len(runs)
	_, right, runs, err := w.RecordRight(h, v, s.H+s.Len, s.V+s.Len, p, runs)
	if err != nil {
		return SeedResult{}, alignment.Alignment{}, err
	}
	JoinCigar(&tb.cig, h, v, s, runs[:nl], runs[nl:])
	full := tb.cig.Cigar()
	tb.runs = runs
	tb.trim()
	res := SeedResult{
		Score:      left.Score + SeedScore(h, v, s, p) + right.Score,
		LeftScore:  left.Score,
		RightScore: right.Score,
		BegH:       s.H - left.EndH,
		BegV:       s.V - left.EndV,
		EndH:       s.H + s.Len + right.EndH,
		EndV:       s.V + s.Len + right.EndV,
	}
	res.Stats.Clamped = left.Clamped || right.Clamped
	aln := alignment.Alignment{
		Score: res.Score,
		BegH:  res.BegH, BegV: res.BegV,
		EndH: res.EndH, EndV: res.EndV,
		Cigar: full,
	}
	return res, aln, nil
}
