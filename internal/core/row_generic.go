//go:build !amd64 || purego

package core

// Without the assembly (another GOARCH, or the purego build tag) linearSweep's
// Go loop computes every row of both kinds.
const rowVec = false

func sweepLinearVec(q *sweepQueue) {
	panic("core: no assembly in this build")
}
