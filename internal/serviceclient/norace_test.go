//go:build !race

package serviceclient_test

const raceEnabled = false
