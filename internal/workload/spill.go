// Slab-level residency: sealed slabs of the arena spine can be spilled
// to disk and faulted back on demand, with pinning around execution
// windows. This is what lets a dataset larger than RAM be schedulable —
// the driver pins exactly the slab set a batch references, runs the
// batch, and releases, so peak residency tracks the working set instead
// of |Ω|.
//
// Lifecycle per slab: open → sealed → spilled ⇄ resident, with pins
// holding a slab resident. Slabs are immutable once sealed, so a spill
// file is written at most once and never invalidated; re-spilling a
// faulted slab just drops the in-memory bytes again.

package workload

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

var spillCRC = crc32.MakeTable(crc32.Castagnoli)

// EnableSpill sets the directory slab spill files are written into and
// turns residency management on. It must be called before the arena is
// shared with concurrent readers. Spilling stays a no-op until Spill is
// called.
func (a *Arena) EnableSpill(dir string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spillDir = dir
}

// Seal closes the open tail slab: no further bytes land in it and it
// becomes spillable; the next append rolls a fresh slab. Sealing an
// empty or already-sealed spine is a no-op. Like appends, Seal is a
// writer-side operation — callers must not run it concurrently with
// appends.
func (a *Arena) Seal() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.slabs); n > 0 {
		a.slabs[n-1].sealed = true
	}
}

// Spill writes every sealed, unpinned, resident slab to its spill file
// (first spill only — slabs are immutable once sealed) and drops the
// in-memory bytes. It returns the number of bytes released. Spill is a
// no-op until EnableSpill has set a directory.
func (a *Arena) Spill() (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spillDir == "" {
		return 0, nil
	}
	var released int64
	for si, sl := range a.slabs {
		if !sl.sealed || sl.pins > 0 || sl.size == 0 {
			continue
		}
		b := sl.bytes()
		if b == nil {
			continue // already spilled
		}
		if sl.path == "" {
			f, err := os.CreateTemp(a.spillDir, fmt.Sprintf("slab-%d-*.bin", si))
			if err != nil {
				return released, fmt.Errorf("workload: spill slab %d: %w", si, err)
			}
			_, werr := f.Write(b)
			cerr := f.Close()
			if werr == nil {
				werr = cerr
			}
			if werr != nil {
				os.Remove(f.Name())
				return released, fmt.Errorf("workload: spill slab %d: %w", si, werr)
			}
			sl.path, sl.sum = f.Name(), crc32.Checksum(b, spillCRC)
		}
		sl.data.Store(nil)
		released += int64(sl.size)
		a.spills++
		a.spilledBytes += int64(sl.size)
	}
	return released, nil
}

// faultInLocked brings a slab's bytes back from its spill file. Caller
// holds a.mu.
func (a *Arena) faultInLocked(sl *slab) ([]byte, error) {
	if b := sl.bytes(); b != nil {
		return b, nil
	}
	if sl.size == 0 {
		b := []byte{}
		sl.setBytes(b)
		return b, nil
	}
	if sl.path == "" {
		return nil, fmt.Errorf("workload: slab spilled with no spill file")
	}
	buf, err := os.ReadFile(sl.path)
	if err != nil {
		return nil, fmt.Errorf("workload: fault slab in: %w", err)
	}
	if len(buf) != sl.size {
		return nil, fmt.Errorf("workload: spill file %s holds %d bytes, slab expects %d",
			sl.path, len(buf), sl.size)
	}
	if sum := crc32.Checksum(buf, spillCRC); sum != sl.sum {
		return nil, fmt.Errorf("workload: spill file %s is corrupt: CRC-32C %08x, slab was spilled with %08x",
			sl.path, sum, sl.sum)
	}
	sl.setBytes(buf)
	a.faults++
	return buf, nil
}

// SlabPin holds a set of slabs resident. Obtained from Pin, released
// exactly once with Release (idempotent); while held, Spill skips the
// pinned slabs, so views handed out by Slabs stay valid.
type SlabPin struct {
	a     *Arena
	set   []int32
	views [][]byte
	once  sync.Once
}

// Pin faults the given slab indices into memory and pins them resident
// until Release. The returned pin's Slabs() table is indexed by slab
// number (full spine length, nil for slabs outside the set), which is
// exactly the shape TileWork.Slabs wants. Pinning an already-resident
// slab is cheap — a counter bump — so the driver pins unconditionally,
// spill enabled or not.
func (a *Arena) Pin(set []int32) (*SlabPin, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := &SlabPin{a: a, set: make([]int32, 0, len(set)), views: make([][]byte, len(a.slabs))}
	for _, si := range set {
		if si < 0 || int(si) >= len(a.slabs) {
			a.unpinLocked(p.set)
			return nil, fmt.Errorf("workload: pin of slab %d outside the %d-slab spine", si, len(a.slabs))
		}
		sl := a.slabs[si]
		b, err := a.faultInLocked(sl)
		if err != nil {
			a.unpinLocked(p.set)
			return nil, err
		}
		sl.pins++
		p.set = append(p.set, si)
		p.views[si] = b[:len(b):len(b)]
	}
	return p, nil
}

func (a *Arena) unpinLocked(set []int32) {
	for _, si := range set {
		a.slabs[si].pins--
	}
}

// Slabs returns the pinned slab views indexed by slab number; entries
// for slabs outside the pinned set are nil. The table length equals the
// spine length at pin time.
func (p *SlabPin) Slabs() [][]byte { return p.views }

// Release unpins the slabs. Idempotent; after release the views may be
// invalidated by a later Spill, so callers must not retain them.
func (p *SlabPin) Release() {
	p.once.Do(func() {
		p.a.mu.Lock()
		defer p.a.mu.Unlock()
		p.a.unpinLocked(p.set)
	})
}

// ResidencyStats is a point-in-time snapshot of the spine's residency.
type ResidencyStats struct {
	// Slabs is the spine length; Resident/Spilled partition the sealed
	// and open slabs by where their bytes are.
	Slabs, Resident, Spilled int
	// ResidentBytes/SpilledBytes are the byte totals of the two sets.
	ResidentBytes, SpilledBytes int64
	// Spills and Faults count slab writes to and reads from spill files
	// over the arena's lifetime.
	Spills, Faults int64
}

// Residency reports the spine's residency snapshot and lifetime
// spill/fault counters.
func (a *Arena) Residency() ResidencyStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ResidencyStats{Slabs: len(a.slabs), Spills: a.spills, Faults: a.faults}
	for _, sl := range a.slabs {
		if sl.bytes() == nil && sl.size > 0 {
			st.Spilled++
			st.SpilledBytes += int64(sl.size)
		} else {
			st.Resident++
			st.ResidentBytes += int64(sl.size)
		}
	}
	return st
}

// Close removes the arena's spill files, faulting any spilled slab back
// in first so no bytes are lost. Use it when a spill-managed arena is
// retired before its spill directory is (temp dirs clean themselves up).
func (a *Arena) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var firstErr error
	for _, sl := range a.slabs {
		if sl.path == "" {
			continue
		}
		if _, err := a.faultInLocked(sl); err != nil && firstErr == nil {
			firstErr = err
			continue
		}
		if err := os.Remove(sl.path); err != nil && firstErr == nil {
			firstErr = err
		}
		sl.path = ""
	}
	return firstErr
}
