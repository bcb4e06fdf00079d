//go:build race

package server

// raceEnabled reports a build with the race detector, which drops
// pooled buffers at random and so changes what a job allocates.
const raceEnabled = true
