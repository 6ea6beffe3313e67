// The payload as parts: the client posts EncodeDatasetParts without
// joining it, so the parts must be the XDW bytes exactly and the slabs
// must be the arena's own bytes.

package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// encodeDatasetRef is the byte-at-a-time encoder the parts encoder
// replaced, kept as the reference the layout is held to.
func encodeDatasetRef(d *workload.Dataset) []byte {
	arena, plan := d.Spine()
	refs := arena.Refs()
	var buf bytes.Buffer
	var flags byte
	if d.Protein {
		flags |= flagProtein
	}
	uv := func(v uint64) { buf.Write(binary.AppendUvarint(nil, v)) }
	u32 := func(v uint32) { buf.Write(binary.LittleEndian.AppendUint32(nil, v)) }
	if arena.NumSlabs() <= 1 {
		buf.Write(magic[:])
		buf.WriteByte(flags)
		uv(uint64(len(d.Name)))
		buf.WriteString(d.Name)
		uv(uint64(len(arena.Slab())))
		buf.Write(arena.Slab())
		uv(uint64(len(refs)))
		for _, r := range refs {
			u32(uint32(r.Off))
			u32(uint32(r.Len))
		}
	} else {
		buf.Write(magic2[:])
		buf.WriteByte(flags)
		uv(uint64(len(d.Name)))
		buf.WriteString(d.Name)
		uv(uint64(arena.NumSlabs()))
		for si := 0; si < arena.NumSlabs(); si++ {
			uv(uint64(len(arena.SlabView(si))))
			buf.Write(arena.SlabView(si))
		}
		uv(uint64(len(refs)))
		for _, r := range refs {
			u32(uint32(r.Slab))
			u32(uint32(r.Off))
			u32(uint32(r.Len))
		}
	}
	uv(uint64(plan.Len()))
	for _, col := range [][]int32{plan.H, plan.V, plan.SeedH, plan.SeedV, plan.SeedLen} {
		for _, v := range col {
			u32(uint32(v))
		}
	}
	return buf.Bytes()
}

// TestEncodeDatasetPartsJoinToPayload: for single- and multi-slab
// spines, named and unnamed, DNA and protein, the joined parts are
// EncodeDataset's bytes and the reference encoder's, and every slab
// travels as the arena's own view.
func TestEncodeDatasetPartsJoinToPayload(t *testing.T) {
	reads := synth.Reads(synth.ReadsSpec{
		Name: "wire", GenomeLen: 30000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 600,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 400, Seed: 9, MaxComparisons: 20,
	})
	protein := workload.MustPack("", [][]byte{[]byte("MKVLAAGIVG"), []byte("MKVLSAGIVG")},
		[]workload.Comparison{{H: 0, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4}}, true)
	multi := multiSlabDataset(t)
	multiArena, multiPlan := multi.Spine()
	for _, tc := range []struct {
		name, magic string
		d           *workload.Dataset
	}{
		{"xdw1", "XDW1", reads},
		{"xdw1 protein unnamed", "XDW1", protein},
		{"xdw2", "XDW2", multi},
		{"xdw2 protein unnamed", "XDW2", multiArena.NewDataset("", multiPlan, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts, err := EncodeDatasetParts(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			joined := bytes.Join(parts, nil)
			if string(joined[:4]) != tc.magic {
				t.Fatalf("framed as %q, want %s", joined[:4], tc.magic)
			}
			p := mustEncode(t, tc.d)
			if !bytes.Equal(joined, p) {
				t.Fatal("joined parts differ from EncodeDataset")
			}
			if !bytes.Equal(p, encodeDatasetRef(tc.d)) {
				t.Fatal("EncodeDataset differs from the reference encoder")
			}
			arena, _ := tc.d.Spine()
			if len(parts) != 2*arena.NumSlabs()+1 {
				t.Fatalf("%d parts for %d slabs, want framing around each slab", len(parts), arena.NumSlabs())
			}
			for si := 0; si < arena.NumSlabs(); si++ {
				view, part := arena.SlabView(si), parts[2*si+1]
				if len(part) != len(view) || unsafe.SliceData(part) != unsafe.SliceData(view) {
					t.Errorf("slab %d was copied into the payload, want the arena's view", si)
				}
			}
			back := mustDecode(t, p)
			if back.Name != tc.d.Name || back.Protein != tc.d.Protein {
				t.Errorf("decoded name %q protein %v, want %q %v", back.Name, back.Protein, tc.d.Name, tc.d.Protein)
			}
		})
	}
}
