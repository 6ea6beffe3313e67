//go:build !amd64 || purego

package core

// Without a vector row body (another GOARCH, or the purego build tag) the
// linear sweeps' inlined Go loops compute every row.
const rowVec = false

func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32) (best int32) {
	panic("core: no vector row body in this build")
}

func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, sim *rowSim, n int, wlast, gap, limit int32, codes *byte) (best int32) {
	panic("core: no vector row body in this build")
}
