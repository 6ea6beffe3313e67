//go:build !amd64 || purego

package core

// Without the assembly (another GOARCH, or the purego build tag) the linear
// sweeps' Go loops compute every row.
const rowVec = false

func sweepLinearVec(st *sweepState) {
	panic("core: no assembly in this build")
}

func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32, dirs *byte, cell int) (best int32) {
	panic("core: no assembly in this build")
}
