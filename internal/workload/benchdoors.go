package workload

// SlabBytes returns the physical pool size across all slabs — what the
// host actually holds (or would hold fully resident) after interning.
// benchmark/trace.go reports it as workload.arena_bytes.
func (a *Arena) SlabBytes() int {
	var n int
	for _, sl := range a.slabs {
		n += sl.size
	}
	return n
}

// PinAll pins every slab in the spine. benchmark/trace.go times it as
// workload.pin_s.
func (a *Arena) PinAll() (*SlabPin, error) {
	set := make([]int32, len(a.slabs))
	for i := range set {
		set[i] = int32(i)
	}
	return a.Pin(set)
}
