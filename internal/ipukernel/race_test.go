//go:build race

package ipukernel

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what is put back on purpose, so a pooled executor is not always warm.
const raceEnabled = true
