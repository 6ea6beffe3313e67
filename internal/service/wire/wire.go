// Package wire is the alignment service's interchange format: a compact
// binary codec for shipping a workload (the arena spine — slab, spans,
// columnar plan) across the network boundary, a FASTA ingestion path for
// thin clients, and the NDJSON record types the result stream is framed
// in. The codec preserves the spine exactly: a decoded dataset has the
// same sequence indices, spans and bytes as the sender's, so the
// service's reports stay byte-identical to an in-process run. No digest
// crosses the wire — the receiver recomputes them from the bytes under
// its own process keys, so routing keys and ExtensionKeys agree with
// every other dataset of the same content in that process, and a sender
// cannot choose them.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Content types the service accepts on POST /v1/jobs.
const (
	// ContentTypeDataset is the binary arena/plan payload EncodeDataset
	// produces — the zero-loss format engine-aware clients use.
	ContentTypeDataset = "application/x-xdropipu-dataset"
	// ContentTypeFasta is plain FASTA text; the server derives the
	// comparison plan (file-order pairing, midpoint seeds) like the CLI.
	ContentTypeFasta = "text/x-fasta"
	// ContentTypeNDJSON frames the result stream: one JSON Envelope per
	// line.
	ContentTypeNDJSON = "application/x-ndjson"
)

// Binary layout (little-endian). Version 1 frames a single-slab spine:
//
//	magic   "XDW1"
//	flags   u8      bit0 = protein
//	name    uvarint length + bytes
//	slab    uvarint length + bytes
//	refs    uvarint count  + count × (off u32, len u32)
//	plan    uvarint rows   + 5 columns × rows × i32  (H V SeedH SeedV SeedLen)
//
// Version 2 frames a multi-slab spine; spans carry their slab index:
//
//	magic   "XDW2"
//	flags   u8      bit0 = protein
//	name    uvarint length + bytes
//	slabs   uvarint count  + count × (uvarint length + bytes)
//	refs    uvarint count  + count × (slab u32, off u32, len u32)
//	plan    uvarint rows   + 5 columns × rows × i32  (H V SeedH SeedV SeedLen)
//
// The encoder emits XDW1 whenever the spine fits one slab — so every
// pre-spine payload stays byte-identical — and XDW2 only for genuinely
// multi-slab pools. The decoder accepts both.
var (
	magic  = [4]byte{'X', 'D', 'W', '1'}
	magic2 = [4]byte{'X', 'D', 'W', '2'}
)

const flagProtein = 1

// EncodeDataset serializes a dataset's arena spine: the concatenation
// of EncodeDatasetParts. The encoding is canonical for a given spine:
// same slabs, spans and plan produce the same bytes, and a single-slab
// spine encodes byte-identically to the pre-spine XDW1 format.
func EncodeDataset(d *workload.Dataset) ([]byte, error) {
	parts, err := EncodeDatasetParts(d)
	if err != nil {
		return nil, err
	}
	return bytes.Join(parts, nil), nil
}

// EncodeDatasetParts returns the dataset's XDW bytes as parts whose
// concatenation is the payload. Each slab is a part of its own — the
// arena's own view, never copied — and everything else (magic, flags,
// name, lengths, refs, plan) is one buffer of the encoder's, cut around
// the slabs. The slab parts alias the arena: they stay valid as long as
// the dataset, and must not be written to.
func EncodeDatasetParts(d *workload.Dataset) ([][]byte, error) {
	arena, plan := d.Spine()
	if arena == nil || plan == nil {
		return nil, fmt.Errorf("wire: dataset has no spine; build it with Pack or Arena.NewDataset")
	}
	refs := arena.Refs()
	multi := arena.NumSlabs() > 1
	var slabs [][]byte
	mag, refBytes := magic, 8
	if multi {
		mag, refBytes = magic2, 12
		slabs = make([][]byte, arena.NumSlabs())
		for si := range slabs {
			slabs[si] = arena.SlabView(si)
		}
	} else {
		slabs = [][]byte{arena.Slab()}
	}
	var flags byte
	if d.Protein {
		flags |= flagProtein
	}
	own := make([]byte, 0, 5+len(d.Name)+len(refs)*refBytes+plan.Len()*20+
		(len(slabs)+4)*binary.MaxVarintLen64)
	own = append(own, mag[:]...)
	own = append(own, flags)
	own = binary.AppendUvarint(own, uint64(len(d.Name)))
	own = append(own, d.Name...)
	if multi {
		own = binary.AppendUvarint(own, uint64(len(slabs)))
	}
	cuts := make([]int, len(slabs)) // where each slab goes in own
	for si, slab := range slabs {
		own = binary.AppendUvarint(own, uint64(len(slab)))
		cuts[si] = len(own)
	}
	own = binary.AppendUvarint(own, uint64(len(refs)))
	for _, r := range refs {
		if multi {
			own = binary.LittleEndian.AppendUint32(own, uint32(r.Slab))
		}
		own = binary.LittleEndian.AppendUint32(own, uint32(r.Off))
		own = binary.LittleEndian.AppendUint32(own, uint32(r.Len))
	}
	own = binary.AppendUvarint(own, uint64(plan.Len()))
	for _, col := range [][]int32{plan.H, plan.V, plan.SeedH, plan.SeedV, plan.SeedLen} {
		for _, v := range col {
			own = binary.LittleEndian.AppendUint32(own, uint32(v))
		}
	}
	parts := make([][]byte, 0, 2*len(slabs)+1)
	prev := 0
	for si, at := range cuts {
		parts = append(parts, own[prev:at:at], slabs[si])
		prev = at
	}
	return append(parts, own[prev:]), nil
}

// DecodeDataset reverses EncodeDataset. The dataset adopts p: its slabs
// are capacity-capped subslices of p (no per-sequence or per-slab
// copies), so the caller must not modify p afterwards. The plan's five
// columns decode straight into the dataset's plan. Both wire versions
// decode — "XDW1" single-slab payloads from pre-spine senders and "XDW2"
// multi-slab spines — and the result validates like any other
// submission. Lengths and counts are checked against the remaining input
// before any allocation, so truncated or hostile payloads (including
// absurd slab counts) fail cleanly instead of over-allocating.
func DecodeDataset(p []byte) (*workload.Dataset, error) {
	r := &reader{p: p}
	var m [4]byte
	r.bytes(m[:])
	multi := m == magic2
	if r.err == nil && m != magic && !multi {
		return nil, fmt.Errorf("wire: bad magic %q", m[:])
	}
	flags := r.u8()
	name := string(r.lenBytes("name"))
	var slabs [][]byte
	if multi {
		nslabs := r.count("slabs", 1)
		slabs = make([][]byte, 0, nslabs)
		for i := 0; i < nslabs && r.err == nil; i++ {
			slabs = append(slabs, r.lenBytes("slab"))
		}
	} else {
		slabs = [][]byte{r.lenBytes("slab")}
	}
	refBytes := 8
	if multi {
		refBytes = 12
	}
	nrefs := r.count("refs", refBytes)
	refs := make([]workload.SeqRef, nrefs)
	for i := range refs {
		if multi {
			refs[i].Slab = int32(r.u32())
		}
		refs[i].Off = int32(r.u32())
		refs[i].Len = int32(r.u32())
	}
	nrows := r.count("plan", 20)
	cols := make([]int32, 5*nrows)
	r.int32s(cols)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.p) != r.off {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(r.p)-r.off)
	}
	col := func(c int) []int32 { return cols[c*nrows : (c+1)*nrows : (c+1)*nrows] }
	plan := &workload.Plan{H: col(0), V: col(1), SeedH: col(2), SeedV: col(3), SeedLen: col(4)}
	arena, err := workload.RestoreArenaSlabs(slabs, refs)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	d := arena.NewDataset(name, plan, flags&flagProtein != 0)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return d, nil
}

// reader is a bounds-checked cursor over the payload; the first error
// sticks and every later read is a no-op.
type reader struct {
	p   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.p) {
		r.fail("truncated payload")
		return
	}
	copy(dst, r.p[r.off:])
	r.off += len(dst)
}

func (r *reader) u8() byte {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// int32s fills dst with consecutive little-endian 32-bit words.
func (r *reader) int32s(dst []int32) {
	if r.err != nil {
		return
	}
	if len(dst) > (len(r.p)-r.off)/4 {
		r.fail("truncated payload")
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(r.p[r.off:]))
		r.off += 4
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// lenBytes reads a uvarint length and returns that many payload bytes as
// a capacity-capped subslice (no copy), so an append to it cannot reach
// the payload bytes that follow.
func (r *reader) lenBytes(what string) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.p)-r.off) {
		r.fail("%s length %d exceeds payload", what, n)
		return nil
	}
	end := r.off + int(n)
	s := r.p[r.off:end:end]
	r.off = end
	return s
}

// count reads an element count and rejects values the remaining payload
// cannot possibly hold (elemSize bytes each), bounding allocations.
func (r *reader) count(what string, elemSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.p)-r.off)/uint64(elemSize) {
		r.fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// DecodeFasta ingests FASTA text the way the CLI's default mode does:
// records pair up in file order (1st vs 2nd, 3rd vs 4th, …) with a
// length-k seed at each pair's midpoints. The records stream straight
// into an arena slab.
func DecodeFasta(body io.Reader, protein bool, k int, name string) (*workload.Dataset, error) {
	alpha := seqio.DNAAlphabet
	if protein {
		alpha = seqio.ProteinAlphabet
	}
	if k <= 0 {
		k = 17
	}
	arena := workload.NewArena(0, 0)
	if _, err := arena.AppendFasta(body, alpha); err != nil {
		return nil, err
	}
	plan := workload.NewPlan(arena.Len() / 2)
	for i := 0; i+1 < arena.Len(); i += 2 {
		lh, lv := int(arena.Ref(i).Len), int(arena.Ref(i+1).Len)
		if lh < k || lv < k {
			continue
		}
		plan.Add(workload.Comparison{
			H: i, V: i + 1,
			SeedH: (lh - k) / 2, SeedV: (lv - k) / 2, SeedLen: k,
		})
	}
	if plan.Len() == 0 {
		return nil, fmt.Errorf("wire: no comparisons derivable from %d FASTA records", arena.Len())
	}
	d := arena.NewDataset(name, plan, protein)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Result is one comparison's alignment on the wire — every AlignOut
// field round-trips, CIGAR included, so client-side assembly reproduces
// the in-process report byte for byte.
type Result struct {
	GlobalID      int    `json:"id"`
	Score         int    `json:"score"`
	LeftScore     int    `json:"ls"`
	RightScore    int    `json:"rs"`
	BegH          int    `json:"bh"`
	BegV          int    `json:"bv"`
	EndH          int    `json:"eh"`
	EndV          int    `json:"ev"`
	Cells         int64  `json:"cells"`
	Antidiagonals int    `json:"ad"`
	MaxLiveBand   int    `json:"band"`
	Clamped       bool   `json:"clamped,omitempty"`
	Failed        bool   `json:"failed,omitempty"`
	Cigar         string `json:"cigar,omitempty"`
	TraceBytes    int    `json:"tb,omitempty"`
}

// FromAlignOut converts one kernel result to its wire form.
func FromAlignOut(o ipukernel.AlignOut) Result {
	return Result{
		GlobalID: o.GlobalID, Score: o.Score,
		LeftScore: o.LeftScore, RightScore: o.RightScore,
		BegH: o.BegH, BegV: o.BegV, EndH: o.EndH, EndV: o.EndV,
		Cells: o.Cells, Antidiagonals: o.Antidiagonals,
		MaxLiveBand: o.MaxLiveBand, Clamped: o.Clamped, Failed: o.Failed,
		Cigar: string(o.Cigar), TraceBytes: o.TraceBytes,
	}
}

// AlignOut converts the wire form back, re-validating the CIGAR so a
// corrupted stream cannot smuggle an invalid edit script into client
// code that trusts the Cigar invariants.
func (r Result) AlignOut() (ipukernel.AlignOut, error) {
	o := ipukernel.AlignOut{
		GlobalID: r.GlobalID, Score: r.Score,
		LeftScore: r.LeftScore, RightScore: r.RightScore,
		BegH: r.BegH, BegV: r.BegV, EndH: r.EndH, EndV: r.EndV,
		Cells: r.Cells, Antidiagonals: r.Antidiagonals,
		MaxLiveBand: r.MaxLiveBand, Clamped: r.Clamped, Failed: r.Failed,
		TraceBytes: r.TraceBytes,
	}
	if r.Cigar != "" {
		c, err := alignment.Parse(r.Cigar)
		if err != nil {
			return o, err
		}
		o.Cigar = c
	}
	return o, nil
}

// Header opens every result stream: the job's address plus the schedule
// shape the client needs to assemble and track progress.
type Header struct {
	Job string `json:"job"`
	// Comparisons is the submitted comparison count — the length of the
	// report's Results.
	Comparisons int `json:"comparisons"`
	// Batches is the schedule's executed-batch total.
	Batches int `json:"batches"`
	// Shard is the engine shard the job routed to (content affinity).
	Shard int `json:"shard"`
	// From is the first chunk sequence number this stream will carry
	// (non-zero on resumed streams).
	From int `json:"from,omitempty"`
}

// Chunk is one delivered batch: Seq numbers chunks in delivery order
// (the resume cursor), Batch is the batch's index in the job's schedule
// (-1 for the cache-served update that precedes execution).
type Chunk struct {
	Seq     int      `json:"seq"`
	Batch   int      `json:"batch"`
	Batches int      `json:"batches"`
	Seconds float64  `json:"seconds,omitempty"`
	Results []Result `json:"results"`
}

// ReportSummary is the report on the wire: driver.Summary itself, which
// declares each scalar and its JSON key once. Results travel in the
// chunks; the client rebuilds driver.Report{Results, Summary}.
type ReportSummary = driver.Summary

// Final closes every result stream: the report summary on success, the
// job's terminal error otherwise.
type Final struct {
	Report *ReportSummary `json:"report,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// Envelope is one NDJSON line of the result stream: exactly one of the
// fields is set.
type Envelope struct {
	Header *Header `json:"header,omitempty"`
	Chunk  *Chunk  `json:"chunk,omitempty"`
	Final  *Final  `json:"final,omitempty"`
}
