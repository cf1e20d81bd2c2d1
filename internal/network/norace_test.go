//go:build !race

package network_test

const raceEnabled = false
