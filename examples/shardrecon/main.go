// Shardrecon measures rebuild confinement on a sharded multi-group
// volume: one logical address space striped across several shifted-
// mirror groups, served by real loopback TCP backends with their read
// bandwidth capped to model disk media rates.
//
// The paper's shifted arrangement spreads one group's rebuild across
// that group's n backends. The sharded layer adds the complementary
// claim: the rebuild stays *inside* the group. While group G rebuilds a
// lost disk, the run hard-asserts three properties:
//
//  1. Confinement on the wire: every backend outside G serves exactly
//     zero rebuild-source elements (per-backend rebuild-read counters),
//     while inside G the usual shifted properties hold — n distinct
//     sources, per-backend load uniform within ±1.
//  2. Availability: seeded element reads against the other groups,
//     issued while G rebuilds, keep their p99 within 1.5× of the idle
//     baseline measured on the same backends before the failure.
//  3. Equivalence: the disk image the sharded RebuildDisk produces is
//     byte-identical to rebuilding the same logical bytes on a
//     standalone single-group volume.
//
// -json emits the whole report machine-readably so CI can assert on it.
//
//	go run ./examples/shardrecon            # defaults: 3 groups of n=3
//	go run ./examples/shardrecon -quick     # small CI-sized run
//	go run ./examples/shardrecon -quick -json > report.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
	"shiftedmirror/internal/shard"
)

// backendSet serves one in-process MemStore per disk of one group over
// loopback TCP, keeping store handles so disk images can be compared
// byte for byte after a rebuild.
type backendSet struct {
	addrs   map[raid.DiskID]string
	servers map[raid.DiskID]*blockserver.Server
	stores  map[raid.DiskID]*dev.MemStore
	opts    []blockserver.ServerOption
	perDisk int64
}

func startBackendSet(arch *raid.Mirror, elementSize int64, stripes int, rateMBps float64) (*backendSet, error) {
	b := &backendSet{
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
		perDisk: int64(stripes) * int64(arch.N()) * elementSize,
	}
	if rateMBps > 0 {
		b.opts = append(b.opts, blockserver.WithReadRate(rateMBps*1e6))
	}
	for _, id := range arch.Disks() {
		if _, err := b.serve(id); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *backendSet) serve(id raid.DiskID) (string, error) {
	store := dev.NewMemStore(b.perDisk)
	var served blockserver.Store = store
	if raceEnabled {
		// See faultinject.OrderedStore: the lock is for the detector.
		served = &faultinject.OrderedStore{Store: store}
	}
	srv := blockserver.NewStoreServer(served, b.opts...)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	b.addrs[id] = bound.String()
	b.servers[id] = srv
	b.stores[id] = store
	return bound.String(), nil
}

// replace tears down a disk's server and serves a fresh zeroed store.
func (b *backendSet) replace(id raid.DiskID) (string, error) {
	b.servers[id].Close()
	return b.serve(id)
}

func (b *backendSet) close() {
	for _, srv := range b.servers {
		srv.Close()
	}
}

// backendReads is one backend's share of a rebuild's source reads.
type backendReads struct {
	Disk     string `json:"disk"`
	Elements int64  `json:"elements"`
}

// report is the whole run, one JSON document.
type report struct {
	Groups       int     `json:"groups"`
	N            int     `json:"n"`
	Stripes      int     `json:"stripes"`
	ElementBytes int64   `json:"element_bytes"`
	RateMBps     float64 `json:"rate_mbps"`
	RebuildGroup int     `json:"rebuild_group"`
	LostDisk     string  `json:"lost_disk"`

	RebuildSeconds float64 `json:"rebuild_seconds"`
	RebuildMBps    float64 `json:"rebuild_mbps"`

	// Sources lists group G's backends that served rebuild elements;
	// OutsideElements sums rebuild-source elements on every backend of
	// every other group — the confinement claim says it is zero.
	Sources         []backendReads `json:"sources"`
	DistinctSources int            `json:"distinct_sources"`
	TotalElements   int64          `json:"total_elements"`
	OutsideElements int64          `json:"outside_elements"`

	// Availability: seeded element reads confined to the other groups,
	// idle (before the failure) vs during the rebuild.
	Reads              int     `json:"reads"`
	ReadsDuringRebuild int     `json:"reads_during_rebuild"`
	IdleP50Ms          float64 `json:"idle_p50_ms"`
	IdleP99Ms          float64 `json:"idle_p99_ms"`
	BusyP50Ms          float64 `json:"busy_p50_ms"`
	BusyP99Ms          float64 `json:"busy_p99_ms"`
	P99Ratio           float64 `json:"p99_ratio"`
	Mismatches         int     `json:"mismatches"`

	// ByteIdentical is the equivalence claim: the sharded rebuild's disk
	// image matches a standalone single-group rebuild of the same bytes.
	ByteIdentical bool `json:"byte_identical"`

	Stats shard.Stats `json:"stats"`
}

func main() {
	groups := flag.Int("groups", 3, "shifted-mirror groups striping the volume")
	n := flag.Int("n", 3, "data disks per group (2n backends per group)")
	stripes := flag.Int("stripes", 64, "stripes per group")
	element := flag.Int64("element", 4096, "element size in bytes")
	rate := flag.Float64("rate", 2, "per-backend read bandwidth in MB/s (models disk media rate)")
	quick := flag.Bool("quick", false, "small run for CI smoke tests")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	flag.Parse()
	if *quick {
		*groups, *n, *stripes, *element, *rate = 3, 3, 32, 2048, 1
	}
	if *groups < 2 {
		fmt.Fprintln(os.Stderr, "shardrecon: need at least 2 groups to measure confinement")
		os.Exit(2)
	}

	rep, err := run(*groups, *n, *stripes, *element, *rate, *quick, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardrecon:", err)
		os.Exit(1)
	}

	// The three hard assertions. Confinement and equivalence are
	// deterministic; the p99 bound holds because the other groups'
	// throttled backends see no rebuild traffic at all.
	if rep.OutsideElements != 0 {
		fmt.Fprintf(os.Stderr, "shardrecon: confinement violated: %d rebuild-source elements outside group %d\n",
			rep.OutsideElements, rep.RebuildGroup)
		os.Exit(1)
	}
	if rep.DistinctSources != *n || rep.TotalElements != int64(*n**stripes) {
		fmt.Fprintf(os.Stderr, "shardrecon: group %d rebuild sourced %d elements from %d backends, want %d from %d (%v)\n",
			rep.RebuildGroup, rep.TotalElements, rep.DistinctSources, *n**stripes, *n, rep.Sources)
		os.Exit(1)
	}
	if rep.P99Ratio > 1.5 {
		fmt.Fprintf(os.Stderr, "shardrecon: availability violated: non-rebuild p99 %.2fms is %.2fx idle %.2fms (bound 1.5x)\n",
			rep.BusyP99Ms, rep.P99Ratio, rep.IdleP99Ms)
		// The p99 of a quick run is the slowest of 25 reads: under the race
		// detector it is reported, in a plain build it is a failure.
		if !raceEnabled {
			os.Exit(1)
		}
	}
	if rep.Mismatches != 0 {
		fmt.Fprintf(os.Stderr, "shardrecon: %d reads diverged from the written payload\n", rep.Mismatches)
		os.Exit(1)
	}
	if !rep.ByteIdentical {
		fmt.Fprintf(os.Stderr, "shardrecon: sharded rebuild diverges from the single-group disk image\n")
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "shardrecon:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("\nrebuild of %s in group %d: %v at %.1f MB/s\n",
		rep.LostDisk, rep.RebuildGroup,
		time.Duration(rep.RebuildSeconds*float64(time.Second)).Round(time.Millisecond), rep.RebuildMBps)
	fmt.Printf("sources: %d backends, %d elements, 0 outside the group (%v)\n",
		rep.DistinctSources, rep.TotalElements, rep.Sources)
	fmt.Printf("\nreads against the other %d groups (%d per phase, %d issued mid-rebuild):\n",
		*groups-1, rep.Reads, rep.ReadsDuringRebuild)
	fmt.Printf("%-8s %10s %10s\n", "", "p50", "p99")
	fmt.Printf("%-8s %8.2fms %8.2fms\n", "idle", rep.IdleP50Ms, rep.IdleP99Ms)
	fmt.Printf("%-8s %8.2fms %8.2fms\n", "rebuild", rep.BusyP50Ms, rep.BusyP99Ms)
	fmt.Printf("p99 ratio: %.2fx (bound 1.5x)\n", rep.P99Ratio)
	fmt.Printf("\nsharded rebuild byte-identical to the single-group path: %v\n", rep.ByteIdentical)
}

func run(groups, n, stripes int, element int64, rate float64, quick, quiet bool) (report, error) {
	rep := report{
		Groups: groups, N: n, Stripes: stripes, ElementBytes: element, RateMBps: rate,
		RebuildGroup: 0,
		LostDisk:     raid.DiskID{Role: raid.RoleData, Index: 0}.String(),
	}
	if !quiet {
		fmt.Printf("sharded reconstruction: %d groups × n=%d, %d stripes, %d B elements, backends capped at %.1f MB/s reads\n",
			groups, n, stripes, element, rate)
	}

	sets := make([]*backendSet, groups)
	children := make([]*cluster.Volume, groups)
	defer func() {
		for _, b := range sets {
			if b != nil {
				b.close()
			}
		}
	}()
	for g := range sets {
		arch := raid.NewMirror(layout.NewShifted(n))
		b, err := startBackendSet(arch, element, stripes, rate)
		if err != nil {
			return rep, err
		}
		sets[g] = b
		v, err := cluster.New(arch, b.addrs, cluster.Config{ElementSize: element, Stripes: stripes})
		if err != nil {
			return rep, err
		}
		children[g] = v
	}
	s, err := shard.New(children, shard.Config{})
	if err != nil {
		return rep, err
	}
	defer s.Close()

	payload := make([]byte, s.Size())
	rand.New(rand.NewSource(7)).Read(payload)
	if _, err := s.WriteAt(payload, 0); err != nil {
		return rep, err
	}
	if _, err := s.Scrub(context.Background()); err != nil {
		return rep, fmt.Errorf("scrub after fill: %w", err)
	}

	// Element offsets living outside the rebuild group, per the extent
	// table; the availability reads draw from these only.
	const gid = 0
	stripeB := int64(n*n) * element
	var outside []int64
	for slot, e := range s.ExtentTable() {
		if e.Group == gid {
			continue
		}
		for off := int64(slot) * stripeB; off < int64(slot+1)*stripeB; off += element {
			outside = append(outside, off)
		}
	}

	reads := 40
	if quick {
		reads = 25
	}
	rep.Reads = reads
	measure := func(seed int64, during <-chan struct{}) (p50, p99 float64, issued int, err error) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, element)
		lats := make([]time.Duration, 0, reads)
		for i := 0; i < reads; i++ {
			if during != nil {
				select {
				case <-during:
				default:
					issued++
				}
			}
			off := outside[rng.Intn(len(outside))]
			start := time.Now()
			if _, err := s.ReadAt(buf, off); err != nil {
				return 0, 0, issued, err
			}
			lats = append(lats, time.Since(start))
			if !bytes.Equal(buf, payload[off:off+element]) {
				rep.Mismatches++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return ms(lats[len(lats)/2]), ms(lats[len(lats)*99/100]), issued, nil
	}

	// Idle baseline on the healthy volume.
	if rep.IdleP50Ms, rep.IdleP99Ms, _, err = measure(99, nil); err != nil {
		return rep, fmt.Errorf("idle reads: %w", err)
	}

	// Fail and rebuild in group 0 while reading the other groups.
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := s.Fail(gid, lost); err != nil {
		return rep, err
	}
	addr, err := sets[gid].replace(lost)
	if err != nil {
		return rep, err
	}
	if err := s.ReplaceBackend(gid, lost, addr); err != nil {
		return rep, err
	}
	for _, g := range s.Groups() {
		v, _ := s.GroupVolume(g)
		v.ResetRebuildReads() // measure this rebuild's source spread alone
	}
	done := make(chan struct{})
	var rebuildErr error
	var elapsed time.Duration
	start := time.Now()
	go func() {
		defer close(done)
		rebuildErr = s.RebuildDisk(context.Background(), gid, lost)
		elapsed = time.Since(start)
	}()
	if rep.BusyP50Ms, rep.BusyP99Ms, rep.ReadsDuringRebuild, err = measure(99, done); err != nil {
		return rep, fmt.Errorf("reads during rebuild: %w", err)
	}
	<-done
	if rebuildErr != nil {
		return rep, fmt.Errorf("rebuild: %w", rebuildErr)
	}
	rep.RebuildSeconds = elapsed.Seconds()
	rep.RebuildMBps = float64(sets[gid].perDisk) / 1e6 / elapsed.Seconds()
	if rep.BusyP99Ms > 0 && rep.IdleP99Ms > 0 {
		rep.P99Ratio = rep.BusyP99Ms / rep.IdleP99Ms
	}
	if rep.ReadsDuringRebuild < reads/2 && !quiet {
		fmt.Printf("note: only %d of %d reads landed mid-rebuild (rebuild finished in %v)\n",
			rep.ReadsDuringRebuild, reads, elapsed.Round(time.Millisecond))
	}

	// Byte-verify the whole volume, then collect the wire counters.
	check := make([]byte, s.Size())
	if _, err := s.ReadAt(check, 0); err != nil {
		return rep, err
	}
	if !bytes.Equal(check, payload) {
		return rep, fmt.Errorf("post-rebuild read diverges from written payload")
	}
	if _, err := s.Scrub(context.Background()); err != nil {
		return rep, fmt.Errorf("post-rebuild scrub: %w", err)
	}
	rep.Stats = s.Stats()
	for _, g := range rep.Stats.PerGroup {
		for _, b := range g.Cluster.Backends {
			if b.RebuildReadElements == 0 {
				continue
			}
			if g.Group != gid {
				rep.OutsideElements += b.RebuildReadElements
				continue
			}
			rep.Sources = append(rep.Sources, backendReads{Disk: b.Disk, Elements: b.RebuildReadElements})
			rep.DistinctSources++
			rep.TotalElements += b.RebuildReadElements
		}
	}

	// Equivalence: rebuild the same logical bytes on a standalone
	// single-group volume and compare raw disk images. The control runs
	// unthrottled — the bytes, not the timing, are the claim.
	var childImage []byte
	for slot, e := range s.ExtentTable() {
		if e.Group == gid {
			childImage = append(childImage, payload[int64(slot)*stripeB:int64(slot+1)*stripeB]...)
		}
	}
	arch := raid.NewMirror(layout.NewShifted(n))
	cb, err := startBackendSet(arch, element, stripes, 0)
	if err != nil {
		return rep, err
	}
	defer cb.close()
	control, err := cluster.New(arch, cb.addrs, cluster.Config{ElementSize: element, Stripes: stripes})
	if err != nil {
		return rep, err
	}
	defer control.Close()
	if _, err := control.WriteAt(childImage, 0); err != nil {
		return rep, err
	}
	if err := control.Fail(lost); err != nil {
		return rep, err
	}
	caddr, err := cb.replace(lost)
	if err != nil {
		return rep, err
	}
	if err := control.ReplaceBackend(lost, caddr); err != nil {
		return rep, err
	}
	if err := control.RebuildDisk(context.Background(), lost); err != nil {
		return rep, err
	}
	shardDisk := make([]byte, sets[gid].stores[lost].Size())
	if _, err := sets[gid].stores[lost].ReadAt(shardDisk, 0); err != nil {
		return rep, err
	}
	controlDisk := make([]byte, cb.stores[lost].Size())
	if _, err := cb.stores[lost].ReadAt(controlDisk, 0); err != nil {
		return rep, err
	}
	rep.ByteIdentical = bytes.Equal(shardDisk, controlDisk)
	return rep, nil
}
