//go:build race

package serviceclient_test

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what is put back on purpose, so pooled scratch is not always reused.
const raceEnabled = true
