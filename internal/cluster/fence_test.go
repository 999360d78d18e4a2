package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// These tests pin what replaced the volume-wide lock: reads hold
// nothing a rebuild slice or a management op takes, and the only writes
// a slice delays are the ones bound for the rebuilding disk's copies in
// the slice's own stripes — with every copy still equal afterwards.

// pacedOnly throttles the reads of every backend but the listed ones.
func pacedOnly(rate float64, except ...raid.DiskID) backendOpt {
	return func(_ *testBackends, id raid.DiskID, s *backendSpec) {
		for _, e := range except {
			if e == id {
				return
			}
		}
		s.opts = append(s.opts, blockserver.WithReadRate(rate))
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCancelledWriteBelowWatermarkRollsBack: a write to a stripe below a
// rebuilding disk's watermark targets the replacement too. Cancelled
// after the surviving copy took it and before the replacement did, it
// leaves the replacement's rebuilt copy of that stripe stale while the
// watermark still says "served from here" — and once the rebuild
// completes, stale for good. The cancelled share must pull the
// watermark back so the stripe is recovered again.
func TestCancelledWriteBelowWatermarkRollsBack(t *testing.T) {
	const n, stripes, elementSize = 3, 6, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, elementSize, stripes, withOrderedStores())
	cfg := fastConfig(elementSize, stripes)
	rebuildCtx, stopRebuild := context.WithCancel(context.Background())
	defer stopRebuild()
	cfg.Tracer = obs.TracerFunc(func(ev obs.Event) {
		if ev.Op == "rebuild_slice" {
			stopRebuild() // the first attempt stops at the first watermark
		}
	})
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 91)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	var gate *faultinject.Gate
	addr := backends.replaceWrapped(lost, func(s blockserver.Store) blockserver.Store {
		gate = faultinject.NewGate(s)
		return gate
	})
	if err := v.ReplaceBackend(lost, addr); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(rebuildCtx, lost); !errors.Is(err, context.Canceled) {
		t.Fatalf("first rebuild attempt = %v, want cancelled after one slice", err)
	}
	if wm := diskStatus(t, v, lost).WatermarkStripes; wm != 2 {
		t.Fatalf("watermark %d after one slice, want 2", wm)
	}

	// data[0] row 0 of stripe 0 is below the watermark: the write goes
	// to the replacement (whose writes are held) and to the mirror copy.
	gate.HoldWrites()
	patch := bytes.Repeat([]byte{0xCD}, elementSize)
	writeCtx, cancelWrite := context.WithCancel(context.Background())
	defer cancelWrite()
	wrote := make(chan error, 1)
	go func() {
		_, err := v.WriteAtCtx(writeCtx, patch, 0)
		wrote <- err
	}()
	survivor := v.locations(0, 0, 0)[1]
	onSurvivor := make([]byte, elementSize)
	waitFor(t, "the surviving copy to take the write and the replacement's share to park", func() bool {
		if _, err := backends.view(survivor.id).ReadAt(onSurvivor, v.storeOffset(0, survivor.row)); err != nil {
			t.Fatal(err)
		}
		return gate.Waiting() == 1 && bytes.Equal(onSurvivor, patch)
	})
	cancelWrite()
	if err := <-wrote; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write = %v", err)
	}
	gate.Release(errors.New("write dropped")) // the replacement never applies it

	d := diskStatus(t, v, lost)
	if d.WatermarkStripes != 0 || d.State != DiskReplacementPending {
		t.Errorf("after the cancelled write: %v at watermark %d, want replacement-pending at 0", d.State, d.WatermarkStripes)
	}
	if h := v.Health(); h.AutoFailed != 0 {
		t.Errorf("a caller's cancel auto-failed %d disks", h.AutoFailed)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	assertCopiesEqual(t, v, backends)
}

// TestReadDoesNotWaitForSlice: on a fleet whose disks are paced, a
// rebuild slice takes a long time — and a read that touches neither the
// slice's sources nor its window must not notice. One read of a stripe
// above the window from an idle backend, one of a stripe below the
// watermark from the replacement, again and again while slices run back
// to back: each returns in under a quarter of a slice.
func TestReadDoesNotWaitForSlice(t *testing.T) {
	const (
		n, elementSize, stripes = 3, 1024, 16
		rate                    = 10e3 // a slice gathers 2 KiB per source: ~200 ms
	)
	arch := raid.NewMirror(layout.NewShifted(n))
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	idle := raid.DiskID{Role: raid.RoleData, Index: 1}
	backends := startBackends(t, arch, elementSize, stripes, pacedOnly(rate, idle))
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 92)
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil { // unpaced
		t.Fatal(err)
	}
	rebuilt := make(chan error, 1)
	go func() { rebuilt <- v.RebuildDisk(context.Background(), lost) }()
	waitFor(t, "the first slice to land", func() bool { return diskStatus(t, v, lost).WatermarkStripes >= 2 })

	stripeBytes := int64(n * n * elementSize)
	above := int64(stripes-1)*stripeBytes + int64(idle.Index)*elementSize // data[1] row 0, last stripe
	below := int64(0)                                                     // data[0] row 0, stripe 0
	var reads []time.Duration
	buf := make([]byte, 512)
	for i := 0; i < 8 && diskStatus(t, v, lost).WatermarkStripes < stripes-4; i++ {
		for _, off := range []int64{above, below} {
			start := time.Now()
			if _, err := v.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			reads = append(reads, time.Since(start))
			if !bytes.Equal(buf, payload[off:off+int64(len(buf))]) {
				t.Fatalf("read at %d mid-rebuild returned the wrong bytes", off)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	if len(reads) < 8 {
		t.Fatalf("only %d reads fell inside the rebuild", len(reads))
	}
	slice := v.Stats().Rebuild.SliceLatency.Mean()
	for _, d := range reads {
		if d >= slice/4 {
			t.Fatalf("a read beside the rebuild took %v; a slice takes %v (all reads: %v)", d, slice, reads)
		}
	}
}

// TestFailDuringPacedRead: a management op publishes a state and
// returns. With one read crawling off a paced disk, Fail and
// ReplaceBackend of another disk each return in under a tenth of that
// read's time, and a read of a third disk issued while they run is not
// held up either.
func TestFailDuringPacedRead(t *testing.T) {
	const (
		n, elementSize, stripes = 3, 4096, 4
		rate                    = 10e3 // one element: ~400 ms
	)
	arch := raid.NewMirror(layout.NewShifted(n))
	paced := raid.DiskID{Role: raid.RoleData, Index: 0}
	var unpaced []raid.DiskID
	for _, id := range arch.Disks() {
		if id != paced {
			unpaced = append(unpaced, id)
		}
	}
	backends := startBackends(t, arch, elementSize, stripes, pacedOnly(rate, unpaced...))
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 93)

	slow := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		if _, err := v.ReadAt(make([]byte, elementSize), 0); err != nil { // data[0] row 0
			t.Error(err)
		}
		slow <- time.Since(start)
	}()
	time.Sleep(30 * time.Millisecond) // the paced read is in flight
	victim := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	fresh := backends.replace(victim)
	var failTook, replaceTook time.Duration
	managed := make(chan error, 1)
	go func() {
		start := time.Now()
		err := v.Fail(victim)
		failTook = time.Since(start)
		if err == nil {
			start = time.Now()
			err = v.ReplaceBackend(victim, fresh)
			replaceTook = time.Since(start)
		}
		managed <- err
	}()
	time.Sleep(10 * time.Millisecond) // at the parent: Fail is queued on the lock by now
	start := time.Now()
	if _, err := v.ReadAt(make([]byte, 512), elementSize); err != nil { // data[1] row 0
		t.Fatal(err)
	}
	otherRead := time.Since(start)
	if err := <-managed; err != nil {
		t.Fatal(err)
	}
	pacedRead := <-slow
	for what, d := range map[string]time.Duration{"Fail": failTook, "ReplaceBackend": replaceTook, "a read of another disk": otherRead} {
		if d >= pacedRead/10 {
			t.Errorf("%s took %v beside a paced read of %v", what, d, pacedRead)
		}
	}
	if err := v.RebuildDisk(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	assertCopiesEqual(t, v, backends)
}

// TestStaleBrokenVerdictIgnored: what a write learned about a backend
// must never be held against the backend that replaced it. Two halves.
//
// End to end, a verdict cannot go stale: ReplaceBackend's drain waits
// for every write planned against the old backend, settling included.
// A write whose share dies with the old backend therefore fails the
// disk before the swap — rightly, the disk missed an acknowledged write
// — the swap makes the new backend its replacement, and a rebuild
// brings every copy level. What may not happen is the new backend
// serving, as healthy, content without the write.
//
// And settleWrites, handed a verdict from a state whose pool the slot no
// longer has, leaves the new backend alone.
func TestStaleBrokenVerdictIgnored(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	moved := raid.DiskID{Role: raid.RoleMirror, Index: 0}
	var gate *faultinject.Gate
	gated := func(_ *testBackends, id raid.DiskID, s *backendSpec) {
		if id == moved {
			gate = faultinject.NewGate(s.store)
			s.store = gate
		}
	}
	backends := startBackends(t, arch, elementSize, stripes, withOrderedStores(), gated)
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 94)

	gate.HoldWrites()
	patch := bytes.Repeat([]byte{0xEF}, int(v.Size())) // every backend has a share
	wrote := make(chan error, 1)
	go func() {
		_, err := v.WriteAt(patch, 0)
		wrote <- err
	}()
	waitFor(t, "the old backend's share to park", func() bool { return gate.Waiting() > 0 })
	// The old server dies with the share in it. Closing it waits for its
	// handlers, so the share is let go — to find its connection gone —
	// once the client has seen the failure.
	killed := make(chan string, 1)
	go func() { killed <- backends.replace(moved) }()
	waitFor(t, "the share to die on the wire", func() bool { return v.Stats().Backends[slotOf(v, moved)].Errors > 0 })
	gate.Release(errors.New("machine gone"))
	if err := v.ReplaceBackend(moved, <-killed); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write with one dying backend = %v", err)
	}
	copy(payload, patch)
	if d := diskStatus(t, v, moved); d.State != DiskReplacementPending || d.WatermarkStripes != 0 {
		t.Fatalf("disk that missed an acknowledged write is %v at watermark %d on its new backend", d.State, d.WatermarkStripes)
	}
	if h := v.Health(); h.AutoFailed != 1 {
		t.Fatalf("%d auto-fails, want the one on the old backend", h.AutoFailed)
	}
	if err := v.RebuildDisk(context.Background(), moved); err != nil {
		t.Fatal(err)
	}
	assertCopiesEqual(t, v, backends)
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("acknowledged write lost across the backend change")
	}

	// The guard itself: a plan routed against the state before a swap,
	// settled after it.
	pl := v.getPlan()
	defer v.putPlan(pl)
	pl.st = v.state.Load()
	pl.broken = append(pl.broken, brokenBackend{slot: slotOf(v, moved)})
	if err := v.ReplaceBackend(moved, backends.replace(moved)); err != nil {
		t.Fatal(err)
	}
	if failed := v.settleWrites(pl); len(failed) != 0 || diskStatus(t, v, moved).State != DiskOnline {
		t.Fatalf("a verdict on the old pool failed the new backend: %v, disk %v", failed, diskStatus(t, v, moved).State)
	}
}

var (
	rebuildStress = flag.Duration("rebuildstress", 0, "keep each TestWriterHammersRebuildWindow variant cycling for this long (0: ten cycles each)")
	rebuildSeed   = flag.Int64("rebuildseed", 0, "seed for TestWriterHammersRebuildWindow's writers (0: from the clock; the test prints it)")
)

// TestWriterHammersRebuildWindow: Fail → RebuildDisk, cycle after
// cycle, in place and onto fresh backends, while two writers rewrite
// changing bytes aimed at the stripes the rebuild is working on — whole
// elements and sub-element ranges (read-modify-written under WireCRC),
// one at a time or several in distinct stripes as one WritePiecesCtx.
// Every rebuild must finish (a writer hammering the window cannot starve
// it), every acknowledged write must read back, every copy must equal
// every other, and — no slice having been discarded or re-run — each
// backend must have sourced exactly layout.RebuildSources per cycle.
//
// The mirror-with-parity variants rebuild a data disk whose replica
// holder for one row stays failed throughout — so that row's elements
// are written through parity alone and rebuilt from it, every write and
// every XOR serialized on rmwMu beside the fence — and the parity disk
// itself. Each variant runs under a watchdog that dumps every goroutine
// if it hangs.
func TestWriterHammersRebuildWindow(t *testing.T) {
	seed := *rebuildSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (replay with -rebuildseed)", seed)
	three := func(n int) *raid.Mirror {
		return raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1))
	}
	parity := raid.NewMirrorWithParity(layout.NewShifted(3))
	for _, tc := range []struct {
		name          string
		arch          *raid.Mirror
		pipeline, crc bool
		lost          raid.DiskID
		down          []raid.DiskID // failed before the cycles start, and left failed
	}{
		{"mirror/sync", raid.NewMirror(layout.NewShifted(3)), false, false, raid.DiskID{Role: raid.RoleData, Index: 1}, nil},
		{"mirror/pipeline/crc", raid.NewMirror(layout.NewShifted(3)), true, true, raid.DiskID{Role: raid.RoleMirror, Index: 2}, nil},
		{"three-mirror/sync/crc", three(4), false, true, raid.DiskID{Role: raid.RoleData, Index: 0}, nil},
		{"three-mirror/pipeline", three(4), true, false, raid.DiskID{Role: raid.RoleMirror, Index: 3}, nil},
		{"parity/holder-down/sync", parity, false, false, raid.DiskID{Role: raid.RoleData, Index: 1},
			[]raid.DiskID{{Role: raid.RoleMirror, Index: 2}}}, // holds data[1] row 1
		{"parity/holder-down/pipeline/crc", parity, true, true, raid.DiskID{Role: raid.RoleData, Index: 1},
			[]raid.DiskID{{Role: raid.RoleMirror, Index: 2}}},
		{"parity/parity-disk/sync/crc", parity, false, true, raid.DiskID{Role: raid.RoleParity}, nil},
		{"parity/parity-disk/pipeline", parity, true, false, raid.DiskID{Role: raid.RoleParity}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 2 * time.Minute
			watchdog := time.AfterFunc(limit+*rebuildStress, func() {
				buf := make([]byte, 1<<20)
				panic(fmt.Sprintf("%s still running after %v: deadlocked?\n%s", t.Name(), limit+*rebuildStress, buf[:runtime.Stack(buf, true)]))
			})
			defer watchdog.Stop()
			hammerRebuildWindow(t, seed, tc.arch, tc.pipeline, tc.crc, tc.lost, tc.down)
		})
	}
}

func hammerRebuildWindow(t *testing.T, seed int64, arch *raid.Mirror, pipeline, crc bool, lost raid.DiskID, down []raid.DiskID) {
	const elementSize, stripes = 256, 24
	n := arch.N()
	opts := []backendOpt{withOrderedStores()}
	var replaceOpts []blockserver.ServerOption
	if crc {
		opts = append(opts, withCRC(elementSize))
		replaceOpts = append(replaceOpts, blockserver.WithCRC(elementSize))
	}
	backends := startBackends(t, arch, elementSize, stripes, opts...)
	cfg := fastConfig(elementSize, stripes)
	cfg.WireCRC, cfg.Pipeline = crc, pipeline
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	shadow := randomPayload(t, v, seed)
	slot := slotOf(v, lost)
	perStripe := n * n
	var downSlots []int
	for _, id := range down {
		if err := v.Fail(id); err != nil {
			t.Fatal(err)
		}
		downSlots = append(downSlots, slotOf(v, id))
	}

	// Writer w owns the elements of index ≡ w mod 2, so each knows what
	// its elements must hold, and aims at the stripes around the lost
	// disk's watermark — the slice in flight — half the time at an
	// element with a copy on the lost disk. Each write is one to three
	// such ranges in distinct stripes: one goes through WriteAt, several
	// through WritePiecesCtx as one op.
	var stop atomic.Bool
	var writes [2]atomic.Int64
	var multi atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w) + 1))
			var bufs [3][]byte
			for i := range bufs {
				bufs[i] = make([]byte, elementSize)
			}
			// target picks one of the writer's ranges, or none.
			target := func(buf []byte) (Piece, bool) {
				var wm int
				for _, d := range v.Disks() {
					if d.ID == lost {
						wm = int(d.WatermarkStripes)
					}
				}
				stripe := (wm + rng.Intn(cfg.RebuildBatch+2) - 1 + stripes) % stripes
				elem := rng.Intn(perStripe)
				if rng.Intn(2) == 0 && slot != v.parity {
					a := v.table.owner(stripe, slot, rng.Intn(n))
					elem = a.Row*n + a.Disk
				}
				if elem%2 != w {
					elem ^= 1
					if elem >= perStripe {
						return Piece{}, false
					}
				}
				off := int64(stripe*perStripe+elem) * elementSize
				if rng.Intn(2) == 0 { // a sub-element range
					lo := rng.Intn(elementSize - 1)
					buf = buf[lo : lo+1+rng.Intn(elementSize-lo-1)]
					off += int64(lo)
				}
				return Piece{Buf: buf, Off: off}, true
			}
			for !stop.Load() {
				var pieces []Piece
				for i := rng.Intn(len(bufs)); i >= 0; i-- {
					if pc, ok := target(bufs[i]); ok {
						pieces = append(pieces, pc)
					}
				}
				slices.SortFunc(pieces, func(a, b Piece) int { return cmp.Compare(a.Off, b.Off) })
				pieces = slices.CompactFunc(pieces, func(a, b Piece) bool {
					return a.Off/int64(perStripe*elementSize) == b.Off/int64(perStripe*elementSize)
				})
				for _, pc := range pieces {
					rng.Read(pc.Buf)
				}
				var err error
				switch len(pieces) {
				case 0:
					continue
				case 1:
					_, err = v.WriteAt(pieces[0].Buf, pieces[0].Off)
				default:
					err = v.WritePiecesCtx(context.Background(), pieces)
					multi.Add(1)
				}
				if err != nil {
					t.Errorf("writer %d at %d: %v", w, pieces[0].Off, err)
					return
				}
				for _, pc := range pieces {
					copy(shadow[pc.Off:], pc.Buf)
				}
				writes[w].Add(1)
			}
		}(w)
	}

	v.ResetRebuildReads()
	ctx := context.Background()
	cycles := 0
	for start := time.Now(); !t.Failed() && (cycles < 10 || time.Since(start) < *rebuildStress); cycles++ {
		if err := v.Fail(lost); err != nil {
			t.Errorf("cycle %d: %v", cycles, err)
			break
		}
		if cycles%2 == 1 {
			if err := v.ReplaceBackend(lost, backends.replace(lost, replaceOpts...)); err != nil {
				t.Errorf("cycle %d: %v", cycles, err)
				break
			}
		}
		if err := v.RebuildDisk(ctx, lost); err != nil {
			t.Errorf("cycle %d rebuild: %v", cycles, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d cycles under %d + %d writes, %d of several pieces", cycles, writes[0].Load(), writes[1].Load(), multi.Load())
	if writes[0].Load() == 0 || writes[1].Load() == 0 || multi.Load() == 0 {
		t.Fatal("a writer never got a write in, or no write had several pieces")
	}
	assertCopiesEqual(t, v, backends)
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverges from the acknowledged writes")
	}
	var want []int64
	if arch.Parity() {
		if want = paritySources(v, slot, downSlots...); want[v.parity] == 0 && len(down) > 0 {
			t.Fatal("no lost element had to come from parity")
		}
	} else {
		want = layout.RebuildSources(arch.Placement(), slot, stripes)
	}
	for i, b := range v.Stats().Backends {
		if b.RebuildReadElements != want[i]*int64(cycles) {
			t.Errorf("%s sourced %d rebuild elements over %d cycles, want %d each", b.Disk, b.RebuildReadElements, cycles, want[i])
		}
	}
}

// TestQoSFeedbackSeesUserLatency: the rebuild QoS controller steers by
// fetchLat, the round trips of user reads. That is only the latency
// users see if a read spends its time in the round trip — not, as it
// used to, waiting out a rebuild slice on the volume's lock, where no
// histogram the controller reads could see it. Under a paced rebuild,
// single-backend reads of an idle disk must show a readLat that is their
// fetchLat plus planning, nothing more.
func TestQoSFeedbackSeesUserLatency(t *testing.T) {
	const (
		n, elementSize, stripes = 3, 1024, 16
		rate                    = 20e3 // a slice gathers 2 KiB per source: ~100 ms
	)
	arch := raid.NewMirror(layout.NewShifted(n))
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	idle := raid.DiskID{Role: raid.RoleData, Index: 1}
	backends := startBackends(t, arch, elementSize, stripes, pacedOnly(rate, idle))
	cfg := fastConfig(elementSize, stripes)
	cfg.RebuildQoSSLO = 50 * time.Millisecond
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 95)
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	rebuilt := make(chan error, 1)
	go func() { rebuilt <- v.RebuildDisk(context.Background(), lost) }()
	waitFor(t, "the rebuild to start", func() bool { return diskStatus(t, v, lost).State == DiskRebuilding })

	readBefore, fetchBefore := v.stats.readLat.Snapshot(), v.stats.fetchLat.Snapshot()
	buf := make([]byte, 512)
	for done := false; !done; {
		select {
		case err := <-rebuilt:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			if _, err := v.ReadAt(buf, int64(idle.Index)*elementSize); err != nil { // data[1] row 0
				t.Fatal(err)
			}
		}
	}
	read := deltaSnapshot(readBefore, v.stats.readLat.Snapshot())
	fetch := deltaSnapshot(fetchBefore, v.stats.fetchLat.Snapshot())
	if read.Count < 100 || fetch.Count != read.Count {
		t.Fatalf("%d reads, %d fetches during the rebuild", read.Count, fetch.Count)
	}
	// The histograms' quantiles are bucket bounds on a 1-2.5-5 ladder, so
	// the p50s are compared by bucket — a read is its fetch plus planning
	// and may straddle a bound — and the 1.5× by the exact means.
	if rp, fp := read.Quantile(0.5), fetch.Quantile(0.5); rp > fp*5/2 {
		t.Errorf("readLat p50 %v against fetchLat p50 %v: reads wait for something the QoS feedback cannot see", rp, fp)
	}
	if rm, fm := read.Mean(), fetch.Mean(); rm > fm*3/2 {
		t.Errorf("readLat mean %v against fetchLat mean %v: reads wait for something the QoS feedback cannot see", rm, fm)
	}
	t.Logf("readLat p50 %v mean %v, fetchLat p50 %v mean %v, %d reads",
		read.Quantile(0.5), read.Mean(), fetch.Quantile(0.5), fetch.Mean(), read.Count)
}

// paritySources is what one rebuild of slot sources from each backend of
// a mirror-with-parity volume whose slots in down are failed beside it:
// each lost element from its first copy on a live slot or, with none,
// from the first live copy of each of its row-mates and from the parity
// disk; the parity disk's own rebuild, every data element of every row
// from its first live copy.
func paritySources(v *Volume, slot int, down ...int) []int64 {
	want := make([]int64, len(v.ids))
	first := func(stripe, disk, row int) bool {
		for _, loc := range v.locations(stripe, disk, row) {
			if loc.slot != slot && !slices.Contains(down, loc.slot) {
				want[loc.slot]++
				return true
			}
		}
		return false
	}
	for stripe := 0; stripe < v.stripes; stripe++ {
		for r := 0; r < v.n; r++ {
			if slot == v.parity {
				for d := 0; d < v.n; d++ {
					first(stripe, d, r)
				}
				continue
			}
			a := v.table.owner(stripe, slot, r)
			if first(stripe, a.Disk, a.Row) {
				continue
			}
			for d := 0; d < v.n; d++ {
				if d != a.Disk {
					first(stripe, d, a.Row)
				}
			}
			want[v.parity]++
		}
	}
	return want
}
