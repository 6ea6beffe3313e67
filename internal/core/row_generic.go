//go:build !amd64 || purego

package core

// Without the assembly (another GOARCH, or the purego build tag) the linear
// sweeps' Go loops compute every row.
const rowVec = false

func sweepLinearVec(q *sweepQueue) {
	panic("core: no assembly in this build")
}
