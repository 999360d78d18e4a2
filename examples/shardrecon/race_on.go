//go:build race

package main

// raceEnabled reports a build with the race detector: such a run is for
// what the detector decides, and leaves wall-clock latency bounds, which
// its instrumentation distorts, to the plain build.
const raceEnabled = true
