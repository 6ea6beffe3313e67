package workload

import "testing"

// SlabState describes where a slab is in its lifecycle:
// open → sealed → spilled (⇄ pinned). Only the last slab of a spine can
// be open; only sealed slabs spill; pinned slabs are resident and stay
// so until every pin is released.
type SlabState int

const (
	// SlabOpen marks the growing tail slab; appends land here.
	SlabOpen SlabState = iota
	// SlabSealed marks an immutable resident slab (spillable).
	SlabSealed
	// SlabSpilled marks a sealed slab whose bytes live only in its
	// spill file; access faults it back in.
	SlabSpilled
)

func (sl *slab) state() SlabState {
	switch {
	case !sl.sealed:
		return SlabOpen
	case sl.data.Load() == nil:
		return SlabSpilled
	default:
		return SlabSealed
	}
}

// SlabStateOf returns slab si's lifecycle state.
func (a *Arena) SlabStateOf(si int) SlabState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slabs[si].state()
}

// mustAppend is TryAppend for a sequence the test knows fits a slab.
func mustAppend(t testing.TB, a *Arena, s []byte) int {
	t.Helper()
	idx, err := a.TryAppend(s)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// seqBytes is the logical pool size: the sum of span lengths, what the
// pool would cost without interning.
func seqBytes(a *Arena) int64 {
	var n int64
	for _, r := range a.Refs() {
		n += int64(r.Len)
	}
	return n
}

// savedBytes is the slab bytes interning avoided.
func savedBytes(a *Arena) int64 { return seqBytes(a) - int64(a.SlabBytes()) }

// slabViews returns resident views of every slab in the spine.
func slabViews(a *Arena) [][]byte {
	views := make([][]byte, a.NumSlabs())
	for i := range views {
		views[i] = a.SlabView(i)
	}
	return views
}
