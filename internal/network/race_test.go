//go:build race

package network_test

// raceEnabled is set under the race detector, whose sync.Pool drops items
// at random: a pooled path's allocation count is then not the real one.
const raceEnabled = true
