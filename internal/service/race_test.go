//go:build race

package service_test

// raceEnabled reports a -race build, where the detector slows each tile
// past a latency bound set for plain builds.
const raceEnabled = true
