//go:build !race

package fanout

const raceEnabled = false
