// Write benchmark: the paper's §VII-B experiment. One thousand random
// large writes (one element up to a whole stripe) run against the
// traditional and shifted variants of the mirror method, with and without
// parity. The shifted arrangement keeps the theoretical-optimal write
// strategy (Property 3), so throughputs should be "compatible" — within a
// few percent.
//
// The run closes with the networked write path over loopback TCP: the
// same full-stripe writes against a cluster volume with the batched
// (OpWriteV) fan-out and with batching disabled (one OpWrite round trip
// per element copy), an A/B of what coalescing is worth on the wire.
package main

import (
	"fmt"
	"log"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
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

	// The cluster write path over real sockets: one coalesced OpWriteV
	// frame per replica backend per stripe.
	mbps, err := clusterWrites(5, 4096, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster full-stripe writes over loopback TCP, n=5: %8.1f MB/s\n", mbps)

	// The read path A/B: the same volume read end to end with the plain
	// wire protocol and with per-element CRC32C verification — what
	// end-to-end integrity costs on the vectored read path.
	fmt.Println("\ncluster full-volume reads over loopback TCP, n=5:")
	for _, mode := range []struct {
		name string
		crc  bool
	}{{"plain", false}, {"crc32c verified", true}} {
		mbps, err := clusterReads(5, 4096, 16, mode.crc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s %8.1f MB/s\n", mode.name, mbps)
	}
}

// clusterWrites serves one in-memory backend per disk over loopback,
// opens a cluster volume on them through the facade, and times one
// full-stripe write per stripe.
func clusterWrites(n int, element int64, stripes int) (float64, error) {
	arch := shiftedmirror.NewShiftedMirror(n)
	diskSize := int64(stripes) * int64(n) * element
	var servers []*blockserver.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	backends := map[shiftedmirror.DiskID]string{}
	for _, id := range arch.Disks() {
		srv := blockserver.NewStoreServer(dev.NewMemStore(diskSize))
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		servers = append(servers, srv)
		backends[id] = bound.String()
	}
	v, err := shiftedmirror.NewClusterVolume(arch, backends,
		shiftedmirror.WithGeometry(element, stripes))
	if err != nil {
		return 0, err
	}
	defer v.Close()
	stripeSize := int64(n) * int64(n) * element
	p := make([]byte, stripeSize)
	for i := range p {
		p[i] = byte(i)
	}
	start := time.Now()
	for s := 0; s < stripes; s++ {
		if _, err := v.WriteAt(p, int64(s)*stripeSize); err != nil {
			return 0, err
		}
	}
	return sim.MBPerSec(stripeSize*int64(stripes), time.Since(start).Seconds()), nil
}

// clusterReads fills a loopback volume once, then times repeated
// full-volume reads — with crc, every element is checksummed by the
// backend and verified by the client on the way through.
func clusterReads(n int, element int64, stripes int, crc bool) (float64, error) {
	arch := shiftedmirror.NewShiftedMirror(n)
	diskSize := int64(stripes) * int64(n) * element
	var servers []*blockserver.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	var srvOpts []blockserver.ServerOption
	if crc {
		srvOpts = append(srvOpts, blockserver.WithCRC(element))
	}
	backends := map[shiftedmirror.DiskID]string{}
	for _, id := range arch.Disks() {
		srv := blockserver.NewStoreServer(dev.NewMemStore(diskSize), srvOpts...)
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		servers = append(servers, srv)
		backends[id] = bound.String()
	}
	opts := []shiftedmirror.Option{shiftedmirror.WithGeometry(element, stripes)}
	if crc {
		opts = append(opts, shiftedmirror.WithWireCRC(element))
	}
	v, err := shiftedmirror.NewClusterVolume(arch, backends, opts...)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	p := make([]byte, v.Size())
	for i := range p {
		p[i] = byte(i)
	}
	if _, err := v.WriteAt(p, 0); err != nil {
		return 0, err
	}
	var bytes int64
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		if _, err := v.ReadAt(p, 0); err != nil {
			return 0, err
		}
		bytes += v.Size()
	}
	return sim.MBPerSec(bytes, time.Since(start).Seconds()), nil
}
