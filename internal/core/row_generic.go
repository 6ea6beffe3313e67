//go:build !amd64 || purego

package core

import "github.com/sram-align/xdropipu/internal/scoring"

// Without a vector row body (another GOARCH, or the purego build tag)
// linearSweep's inlined Go loop computes every row.
const rowVec = false

func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best, carry int32) {
	panic("core: no vector row body in this build")
}

func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32, codes *byte) (best int32) {
	panic("core: no vector row body in this build")
}
