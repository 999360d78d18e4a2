// Write benchmark: the paper's §VII-B experiment. One thousand random
// large writes (one element up to a whole stripe) run against the
// traditional and shifted variants of the mirror method, with and without
// parity. The shifted arrangement keeps the theoretical-optimal write
// strategy (Property 3), so throughputs should be "compatible" — within a
// few percent. The run closes with the parity-update strategies on
// partial-row writes and the wall-clock cost of the byte-level parity
// encode. (The networked write and read paths are measured, with every
// byte verified, by the repo benchmark: bench/, workload large_seq.)
package main

import (
	"fmt"
	"log"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/erasure"
	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/sim"
)

func main() {
	cfg := shiftedmirror.DefaultSimConfig()
	cfg.Stripes = 32

	fmt.Printf("%3s  %-30s %14s %12s %12s\n", "n", "architecture", "user MB", "MB/s", "accesses")
	for n := 3; n <= 7; n++ {
		ops := shiftedmirror.LargeWrites(42, 1000, n, cfg.Stripes)
		for _, arch := range []*shiftedmirror.Mirror{
			shiftedmirror.NewTraditionalMirror(n),
			shiftedmirror.NewShiftedMirror(n),
			shiftedmirror.NewTraditionalMirrorWithParity(n),
			shiftedmirror.NewShiftedMirrorWithParity(n),
		} {
			stats, err := shiftedmirror.NewSimulator(arch, cfg).RunWrites(ops, shiftedmirror.WriteAuto)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%3d  %-30s %14.0f %12.1f %12d\n",
				n, arch.Name(), float64(stats.UserBytes)/1e6, stats.ThroughputMBs,
				stats.PreReadAccesses+stats.WriteAccesses)
		}
		fmt.Println()
	}

	// Parity-update strategies on partial-row writes (§VII-B's
	// read-modify-write vs reconstruct-write choice).
	fmt.Println("parity update strategies, shifted mirror with parity, n=5:")
	ops := shiftedmirror.LargeWrites(43, 500, 5, cfg.Stripes)
	arch := shiftedmirror.NewShiftedMirrorWithParity(5)
	for _, strat := range []shiftedmirror.WriteStrategy{
		shiftedmirror.WriteAuto, shiftedmirror.WriteRMW, shiftedmirror.WriteReconstruct,
	} {
		stats, err := shiftedmirror.NewSimulator(arch, cfg).RunWrites(ops, strat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20v %8.1f MB/s\n", strat, stats.ThroughputMBs)
	}

	// Wall-clock byte-level encode throughput: what the parity disk of
	// the mirror method with parity actually costs in CPU on this
	// machine, through the gf kernel layer (active kernel shown).
	fmt.Printf("\nbyte-level parity encode, wall clock (gf kernel %q):\n", gf.ActiveKernel())
	const shard = 1 << 20
	for n := 3; n <= 7; n++ {
		code := erasure.NewXORParity(n)
		shards := make([][]byte, n+1)
		for i := range shards {
			shards[i] = make([]byte, shard)
			for j := 0; j < shard; j += 251 {
				shards[i][j] = byte(i + j)
			}
		}
		if err := code.Encode(shards); err != nil {
			log.Fatal(err)
		}
		var bytes int64
		start := time.Now()
		for time.Since(start) < 200*time.Millisecond {
			if err := code.Encode(shards); err != nil {
				log.Fatal(err)
			}
			bytes += int64(shard) * int64(n)
		}
		fmt.Printf("  n=%d %10.0f MB/s\n", n, sim.MBPerSec(bytes, time.Since(start).Seconds()))
	}
}
