//go:build !race

package ipukernel

const raceEnabled = false
