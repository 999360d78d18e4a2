//go:build race

package main

// raceEnabled skips the tests that run workloads. Two clients rewriting
// the same reference bytes overlap by design (the volume documents raw
// block-device semantics for overlapping writes, and MemStore takes no
// lock), and the benchmark compares store images while such writes land;
// every interleaving leaves the same bytes, but the detector rightly
// calls the accesses unordered.
const raceEnabled = true
