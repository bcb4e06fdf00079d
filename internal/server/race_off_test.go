//go:build !race

package server

// raceEnabled reports a build with the race detector (race_on_test.go).
const raceEnabled = false
