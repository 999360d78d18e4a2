//go:build race

package fanout

// raceEnabled gates assertions that the race detector's instrumentation
// invalidates (it adds its own allocations to instrumented code paths).
const raceEnabled = true
