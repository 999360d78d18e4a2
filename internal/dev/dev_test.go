package dev

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// This file is the device suite: every behaviour of a block device over
// this package's stores, run on the one volume core (cluster.Volume)
// over both kinds of backend — the stores in this process
// (cluster.NewLocal) and served by loopback blockservers (cluster.New) —
// and, where the test is about the layout, over {shifted, traditional}
// × {mirror, mirror+parity, three-mirror}.

const elem = 64

// backendKinds are the two ways a device reaches its disks.
var backendKinds = []string{"local", "loopback"}

// archs is the suite's architecture table at n data disks.
func archs(n int) []*raid.Mirror {
	return []*raid.Mirror{
		raid.NewMirror(layout.NewShifted(n)),
		raid.NewMirror(layout.NewTraditional(n)),
		raid.NewMirrorWithParity(layout.NewShifted(n)),
		raid.NewMirrorWithParity(layout.NewTraditional(n)),
		raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1)),
		raid.NewThreeMirror(layout.NewTraditional(n), layout.NewTraditional(n)),
	}
}

// eachConfig runs fn as one subtest per backend kind and architecture
// of archs(n) that keep says to run (nil: all).
func eachConfig(t *testing.T, n int, keep func(*raid.Mirror) bool, fn func(t *testing.T, kind string, arch *raid.Mirror)) {
	for _, kind := range backendKinds {
		for _, arch := range archs(n) {
			if keep == nil || keep(arch) {
				t.Run(kind+"/"+arch.Name(), func(t *testing.T) { fn(t, kind, arch) })
			}
		}
	}
}

// twoFailures keeps the architectures that survive any two failures.
func twoFailures(arch *raid.Mirror) bool { return arch.FaultTolerance() == 2 }

// device is a device under test: the volume over stores the test can
// also reach behind its back.
type device struct {
	*cluster.Volume
	arch    *raid.Mirror
	stripes int
	stores  map[raid.DiskID]BackingStore
}

// newDevice builds a device of the given kind over fresh MemStores;
// tweak, if given, adjusts the volume's config.
func newDevice(t testing.TB, kind string, arch *raid.Mirror, stripes int, tweak ...func(*cluster.Config)) *device {
	t.Helper()
	stores := map[raid.DiskID]BackingStore{}
	for _, id := range arch.Disks() {
		stores[id] = NewMemStore(int64(stripes) * int64(arch.N()) * elem)
	}
	return openDevice(t, kind, arch, stripes, stores, tweak...)
}

// openDevice stripes a device of the given kind over stores. A loopback
// device serves each store from behind a lock (faultinject.OrderedStore):
// the race detector cannot see the ordering the volume gives two
// connections.
func openDevice(t testing.TB, kind string, arch *raid.Mirror, stripes int, stores map[raid.DiskID]BackingStore, tweak ...func(*cluster.Config)) *device {
	t.Helper()
	cfg := cluster.Config{ElementSize: elem, Stripes: stripes, RebuildBatch: 2}
	for _, f := range tweak {
		f(&cfg)
	}
	d := &device{arch: arch, stripes: stripes, stores: stores}
	var err error
	if kind == "local" {
		d.Volume, err = cluster.NewLocal(arch, stores, cfg)
	} else {
		addrs := map[raid.DiskID]string{}
		for id, s := range stores {
			srv := blockserver.NewStoreServer(&faultinject.OrderedStore{Store: s})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[id] = addr.String()
		}
		d.Volume, err = cluster.New(arch, addrs, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func (d *device) diskSize() int64 { return int64(d.stripes) * int64(d.arch.N()) * elem }

func fillRandom(t testing.TB, d *device, seed int64) []byte {
	t.Helper()
	data := make([]byte, d.Size())
	rand.New(rand.NewSource(seed)).Read(data)
	if n, err := d.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("fill: n=%d err=%v", n, err)
	}
	return data
}

func mustRead(t testing.TB, d *device) []byte {
	t.Helper()
	got := make([]byte, d.Size())
	if n, err := d.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	return got
}

// fail fails a disk and wipes its store, as losing the disk would: all
// the device serves from it afterwards is what a rebuild put back.
func (d *device) fail(t testing.TB, id raid.DiskID) {
	t.Helper()
	if err := d.Fail(id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.stores[id].WriteAt(bytes.Repeat([]byte{0xEE}, int(d.diskSize())), 0); err != nil {
		t.Fatal(err)
	}
}

func (d *device) rebuild(t testing.TB, id raid.DiskID) {
	t.Helper()
	if err := d.RebuildDisk(context.Background(), id); err != nil {
		t.Fatalf("rebuild %v: %v", id, err)
	}
}

func (d *device) scrub(t testing.TB) cluster.ScrubReport {
	t.Helper()
	rep, err := d.Scrub(context.Background())
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.ElementsCompared == 0 {
		t.Fatal("scrub compared nothing")
	}
	return rep
}

// diskImage is what disk id must hold for the logical payload, from the
// arrangement alone: a data or mirror disk's element copies, or the
// parity disk's row XORs.
func diskImage(arch *raid.Mirror, id raid.DiskID, payload []byte, stripes int) []byte {
	n := arch.N()
	img := make([]byte, int64(stripes)*int64(n)*elem)
	element := func(stripe, disk, row int) []byte {
		off := (int64(stripe)*int64(n)*int64(n) + int64(row)*int64(n) + int64(disk)) * elem
		return payload[off : off+elem]
	}
	for stripe := 0; stripe < stripes; stripe++ {
		for r := 0; r < n; r++ {
			at := img[(int64(stripe)*int64(n)+int64(r))*elem:][:elem]
			switch id.Role {
			case raid.RoleData:
				copy(at, element(stripe, id.Index, r))
			case raid.RoleParity:
				for disk := 0; disk < n; disk++ {
					gf.XorSlice(element(stripe, disk, r), at)
				}
			default:
				a := arch.Mirrors()[id.Role-raid.RoleMirror].DataOf(layout.Addr{Disk: id.Index, Row: r})
				copy(at, element(stripe, a.Disk, a.Row))
			}
		}
	}
	return img
}

// expectImages checks that every disk in service holds exactly what the
// arrangement puts there for payload — copies and parity alike.
func (d *device) expectImages(t testing.TB, payload []byte) {
	t.Helper()
	for _, s := range d.Disks() {
		if s.State != cluster.DiskOnline {
			continue
		}
		got := make([]byte, d.diskSize())
		if _, err := d.stores[s.ID].ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, diskImage(d.arch, s.ID, payload, d.stripes)) {
			t.Fatalf("%v does not hold what the arrangement puts there", s.ID)
		}
	}
}

// corrupt flips one byte of a disk's store behind the device's back.
func (d *device) corrupt(t testing.TB, id raid.DiskID, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := d.stores[id].ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := d.stores[id].WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// holder is the first mirror disk holding a copy of data[disk] row row.
func holder(arch *raid.Mirror, disk, row int) raid.DiskID {
	a := arch.Mirrors()[0].MirrorOf(layout.Addr{Disk: disk, Row: row})
	return raid.DiskID{Role: raid.RoleMirror, Index: a.Disk}
}

var (
	data0  = raid.DiskID{Role: raid.RoleData, Index: 0}
	data1  = raid.DiskID{Role: raid.RoleData, Index: 1}
	parity = raid.DiskID{Role: raid.RoleParity}
)

func TestWriteReadRoundTrip(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 3)
		data := fillRandom(t, d, 1)
		if !bytes.Equal(mustRead(t, d), data) {
			t.Fatal("round trip mismatch")
		}
		d.scrub(t)
		d.expectImages(t, data)
	})
}

func TestUnalignedIO(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 3)
		data := fillRandom(t, d, 2)
		// Overwrite a range crossing three element boundaries at odd offsets.
		patch := make([]byte, 3*elem)
		rand.New(rand.NewSource(3)).Read(patch)
		off := int64(elem/2 + 5)
		if _, err := d.WriteAt(patch, off); err != nil {
			t.Fatal(err)
		}
		copy(data[off:], patch)
		if !bytes.Equal(mustRead(t, d), data) {
			t.Fatal("unaligned write mismatch")
		}
		d.scrub(t)
		d.expectImages(t, data)
		// Small read at an odd offset.
		small := make([]byte, 10)
		if _, err := d.ReadAt(small, off+3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(small, data[off+3:off+13]) {
			t.Fatal("unaligned read mismatch")
		}
	})
}

func TestDegradedReadsAfterSingleFailure(t *testing.T) {
	eachConfig(t, 3, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 2)
		data := fillRandom(t, d, 4)
		for _, id := range arch.Disks() {
			before := d.Health().DegradedReads
			d.fail(t, id)
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatalf("degraded read after failing %v differs", id)
			}
			if degraded := d.Health().DegradedReads - before; (id.Role == raid.RoleData) != (degraded > 0) {
				t.Fatalf("failing %v: %d degraded reads", id, degraded)
			}
			d.rebuild(t, id)
		}
		if h := d.Health(); h.ParityReads != 0 {
			t.Fatalf("%d elements read from parity with a copy of each alive", h.ParityReads)
		}
	})
}

// TestDegradedReadsAfterDoubleFailure fails every pair of disks of a
// two-failure architecture in turn: every byte stays readable, and on a
// mirror-with-parity array each element left with no live copy (a data
// disk and the mirror disk holding its replica) is read from parity —
// exactly those, once per stripe.
func TestDegradedReadsAfterDoubleFailure(t *testing.T) {
	eachConfig(t, 4, twoFailures, func(t *testing.T, kind string, arch *raid.Mirror) {
		const stripes = 3
		d := newDevice(t, kind, arch, stripes)
		data := fillRandom(t, d, 5)
		for _, failure := range raid.AllDoubleFailures(arch) {
			for _, id := range failure {
				d.fail(t, id)
			}
			before := d.Health().ParityReads
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatalf("degraded read after %v differs", failure)
			}
			want := 0
			if arch.Parity() && failure[0].Role == raid.RoleData && failure[1].Role == raid.RoleMirror {
				for row := 0; row < arch.N(); row++ {
					if holder(arch, failure[0].Index, row) == failure[1] {
						want += stripes
					}
				}
			}
			if got := d.Health().ParityReads - before; got != int64(want) {
				t.Fatalf("after %v: %d elements read from parity, want %d", failure, got, want)
			}
			for _, id := range failure {
				d.rebuild(t, id)
			}
		}
		d.expectImages(t, data)
		d.scrub(t)
	})
}

// TestWritesWhileDegraded writes the whole device with as many disks
// failed as the architecture tolerates — on a mirror-with-parity array a
// data disk and the holder of one of its replicas, so one element per
// stripe is written through parity alone — then rebuilds: redundancy
// carries the new data onto the rebuilt disks.
func TestWritesWhileDegraded(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 2)
		fillRandom(t, d, 6)
		failed := []raid.DiskID{data1}
		if arch.FaultTolerance() == 2 {
			failed = append(failed, holder(arch, 1, 0))
		}
		for _, id := range failed {
			d.fail(t, id)
		}
		update := make([]byte, d.Size())
		rand.New(rand.NewSource(7)).Read(update)
		if _, err := d.WriteAt(update, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustRead(t, d), update) {
			t.Fatal("degraded write lost data")
		}
		if h := d.Health(); arch.Parity() && h.ParityReads == 0 {
			t.Fatal("no element with both copies down was read from parity")
		}
		for _, id := range failed {
			d.rebuild(t, id)
		}
		d.scrub(t)
		d.expectImages(t, update)
		if !bytes.Equal(mustRead(t, d), update) {
			t.Fatal("rebuilt device differs")
		}
	})
}

// TestRebuildAllArchitectures loses and rebuilds every disk in turn —
// data, each mirror array's, and the parity disk — each time restoring
// exactly the arrangement's image.
func TestRebuildAllArchitectures(t *testing.T) {
	eachConfig(t, 3, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 3)
		data := fillRandom(t, d, 8)
		for _, id := range arch.Disks() {
			d.fail(t, id)
			d.rebuild(t, id)
			d.expectImages(t, data)
			d.scrub(t)
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatalf("data differs after rebuilding %v", id)
			}
		}
		if st := d.Stats(); st.Rebuild.Completed != int64(len(arch.Disks())) || st.Rebuild.Stripes != int64(3*len(arch.Disks())) {
			t.Fatalf("rebuild counters: %+v", st.Rebuild)
		}
	})
}

// TestDoubleFailureRebuildWithParity fails a data disk and a mirror disk
// holding one of its replicas (the F3 case with the XOR dependency),
// then rebuilds both: the doubly-lost elements come back through parity.
func TestDoubleFailureRebuildWithParity(t *testing.T) {
	eachConfig(t, 4, (*raid.Mirror).Parity, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 2)
		data := fillRandom(t, d, 9)
		mirror := holder(arch, 0, 2)
		d.fail(t, data0)
		d.fail(t, mirror)
		d.rebuild(t, data0)
		if h := d.Health(); h.ParityReads == 0 {
			t.Fatal("data disk rebuilt without reading parity")
		}
		d.rebuild(t, mirror)
		d.scrub(t)
		d.expectImages(t, data)
		if !bytes.Equal(mustRead(t, d), data) {
			t.Fatal("data differs after double rebuild")
		}
	})
}

// TestDataLossBeyondTolerance fails one disk more than each family
// survives, all of them sharing an element: reading it, writing it and
// rebuilding a disk that holds it are all data loss.
func TestDataLossBeyondTolerance(t *testing.T) {
	for _, kind := range backendKinds {
		for _, arch := range []*raid.Mirror{
			raid.NewMirror(layout.NewShifted(3)),
			raid.NewMirrorWithParity(layout.NewShifted(3)),
			raid.NewThreeMirror(layout.NewGeneralShifted(3, 1, 1), layout.NewGeneralShifted(3, 2, 1)),
		} {
			t.Run(kind+"/"+arch.Name(), func(t *testing.T) {
				d := newDevice(t, kind, arch, 1)
				fillRandom(t, d, 10)
				// data[0] row 1 and every other home it has.
				failed := []raid.DiskID{data0}
				for mi, arr := range arch.Mirrors() {
					a := arr.MirrorOf(layout.Addr{Disk: 0, Row: 1})
					failed = append(failed, raid.DiskID{Role: raid.RoleMirror + raid.Role(mi), Index: a.Disk})
				}
				if arch.Parity() {
					failed = append(failed, parity)
				}
				for _, id := range failed {
					d.fail(t, id)
				}
				buf := make([]byte, d.Size())
				if _, err := d.ReadAt(buf, 0); !errors.Is(err, cluster.ErrDataLoss) {
					t.Fatalf("read: want ErrDataLoss, got %v", err)
				}
				if _, err := d.WriteAt(buf[:elem], int64(arch.N())*elem); !errors.Is(err, cluster.ErrDataLoss) {
					t.Fatalf("write: want ErrDataLoss, got %v", err)
				}
				if err := d.RebuildDisk(context.Background(), data0); !errors.Is(err, cluster.ErrDataLoss) {
					t.Fatalf("rebuild: want ErrDataLoss, got %v", err)
				}
			})
		}
	}
}

// TestScrubDetectsCorruption flips a replica byte, and on a parity
// architecture then a parity byte, behind the device's back: each is a
// scrub mismatch.
func TestScrubDetectsCorruption(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 3)
		fillRandom(t, d, 11)
		victims := []raid.DiskID{{Role: raid.RoleMirror, Index: 1}}
		if arch.Parity() {
			victims = append(victims, parity)
		}
		for _, id := range victims {
			d.corrupt(t, id, 10)
			if _, err := d.Scrub(context.Background()); !errors.Is(err, cluster.ErrScrubMismatch) {
				t.Fatalf("corrupt %v: want ErrScrubMismatch, got %v", id, err)
			}
			d.corrupt(t, id, 10) // and back
		}
		d.scrub(t)
	})
}

func TestFailDiskValidation(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			d := newDevice(t, kind, raid.NewMirrorWithParity(layout.NewShifted(4)), 3)
			if err := d.Fail(raid.DiskID{Role: raid.RoleData, Index: 99}); err == nil {
				t.Fatal("unknown disk accepted")
			}
			if err := d.Fail(data0); err != nil {
				t.Fatal(err)
			}
			if err := d.Fail(data0); !errors.Is(err, cluster.ErrDiskFailed) {
				t.Fatalf("double fail: %v", err)
			}
			if err := d.RebuildDisk(context.Background(), data1); err == nil {
				t.Fatal("rebuild of healthy disk accepted")
			}
		})
	}
}

// TestFailedDisksOrder pins the order Disks reports failed disks in: the
// architecture's disk order, whatever order they failed in.
func TestFailedDisksOrder(t *testing.T) {
	d := newDevice(t, "local", raid.NewMirrorWithParity(layout.NewShifted(4)), 3)
	want := []raid.DiskID{
		{Role: raid.RoleData, Index: 1},
		{Role: raid.RoleMirror, Index: 0},
		{Role: raid.RoleMirror, Index: 3},
	}
	for _, i := range []int{2, 0, 1} {
		if err := d.Fail(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var got []raid.DiskID
	for _, s := range d.Disks() {
		if s.State != cluster.DiskOnline {
			got = append(got, s.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("failed disks %v, want %v", got, want)
	}
}

// TestIOBounds: reads and writes at the edges of the device — and at
// offsets whose end wraps int64 — are refused with a bounds error before
// any I/O.
func TestIOBounds(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			d := newDevice(t, kind, raid.NewMirrorWithParity(layout.NewShifted(4)), 3)
			if _, err := d.ReadAt(make([]byte, 1), -1); err == nil {
				t.Error("negative read offset accepted")
			}
			if _, err := d.ReadAt(make([]byte, 1), d.Size()); err != io.EOF {
				t.Errorf("read at the end: %v, want io.EOF", err)
			}
			if _, err := d.WriteAt(make([]byte, 2), d.Size()-1); err == nil {
				t.Error("write past end accepted")
			}
			for _, off := range []int64{math.MaxInt64 - 8, math.MaxInt64} {
				if _, err := d.WriteAt(make([]byte, 16), off); err == nil || errors.Is(err, cluster.ErrDataLoss) {
					t.Errorf("write at %d: %v, want a bounds error", off, err)
				}
			}
			if h := d.Health(); h.ElementsWritten != 0 {
				t.Errorf("refused writes wrote %d elements", h.ElementsWritten)
			}
			// Short read at the tail returns io.EOF.
			buf := make([]byte, 2*elem)
			n, err := d.ReadAt(buf, d.Size()-elem)
			if n != elem || !errors.Is(err, io.EOF) {
				t.Errorf("tail read: n=%d err=%v", n, err)
			}
		})
	}
}

// TestConcurrentAccess runs readers and writers at once — each writer in
// its own quarter of the device, at unaligned offsets, so writes share
// elements and rows but never bytes (overlapping writers race per copy,
// as on any block device); the copies and the parity they leave behind
// must agree.
func TestConcurrentAccess(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 4)
		fillRandom(t, d, 12)
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		zone := d.Size() / 4
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, elem)
				for i := 0; i < 50; i++ {
					if seed%2 == 0 {
						rng.Read(buf)
						if _, err := d.WriteAt(buf, seed/2*zone+rng.Int63n(zone-elem)); err != nil {
							errs <- err
							return
						}
					} else if _, err := d.ReadAt(buf, rng.Int63n(d.Size()-elem)); err != nil {
						errs <- err
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		d.scrub(t)
		d.expectImages(t, mustRead(t, d))
	})
}

// TestOnlineRebuildWithConcurrentIO rebuilds while reads and writes keep
// coming — with a replica holder down too where the architecture allows,
// so parity serves and rebuilds beside the writes — and every read must
// see the latest write.
func TestOnlineRebuildWithConcurrentIO(t *testing.T) {
	eachConfig(t, 4, nil, func(t *testing.T, kind string, arch *raid.Mirror) {
		d := newDevice(t, kind, arch, 32)
		shadow := make([]byte, d.Size())
		rand.New(rand.NewSource(20)).Read(shadow)
		if _, err := d.WriteAt(shadow, 0); err != nil {
			t.Fatal(err)
		}
		failed := []raid.DiskID{{Role: raid.RoleData, Index: 2}}
		if arch.FaultTolerance() == 2 {
			failed = append(failed, holder(arch, 2, 1))
		}
		for _, id := range failed {
			d.fail(t, id)
		}
		done := make(chan error, 1)
		go func() {
			for _, id := range failed {
				if err := d.RebuildDisk(context.Background(), id); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		rng := rand.New(rand.NewSource(21))
		buf := make([]byte, elem)
		for i := 0; i < 200; i++ {
			off := rng.Int63n(d.Size() - elem)
			if rng.Intn(2) == 0 {
				rng.Read(buf)
				if _, err := d.WriteAt(buf, off); err != nil {
					t.Fatal(err)
				}
				copy(shadow[off:], buf)
			} else {
				if _, err := d.ReadAt(buf, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, shadow[off:off+elem]) {
					t.Fatalf("read at %d during rebuild returned stale data", off)
				}
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		d.scrub(t)
		d.expectImages(t, shadow)
		if !bytes.Equal(mustRead(t, d), shadow) {
			t.Fatal("contents diverged after online rebuild")
		}
	})
}

// TestRebuiltStripesServedFromReplacement stops a rebuild after its first
// slice: the disk stays failed, the stripes below its watermark hold
// their bytes again and are served from it (no degraded read), the rest
// still from redundancy.
func TestRebuiltStripesServedFromReplacement(t *testing.T) {
	for _, kind := range backendKinds {
		for _, arch := range []*raid.Mirror{raid.NewMirror(layout.NewShifted(3)), raid.NewMirrorWithParity(layout.NewShifted(3))} {
			t.Run(kind+"/"+arch.Name(), func(t *testing.T) {
				const stripes = 8
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				d := newDevice(t, kind, arch, stripes, func(c *cluster.Config) {
					c.Tracer = obs.TracerFunc(func(ev obs.Event) {
						if ev.Op == "rebuild_slice" {
							cancel()
						}
					})
				})
				data := fillRandom(t, d, 22)
				d.fail(t, data1)
				if err := d.RebuildDisk(ctx, data1); !errors.Is(err, context.Canceled) {
					t.Fatalf("rebuild cut short: %v", err)
				}
				s := d.Disks()[1]
				wm := s.WatermarkStripes
				if s.State == cluster.DiskOnline || wm < 1 || wm >= stripes {
					t.Fatalf("after one slice: %v at watermark %d", s.State, wm)
				}
				rebuilt := wm * int64(arch.N()) * elem
				got := make([]byte, rebuilt)
				if _, err := d.stores[data1].ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, diskImage(arch, data1, data, stripes)[:rebuilt]) {
					t.Fatal("replacement holds wrong bytes for rebuilt stripes")
				}
				stripe := int64(arch.N()*arch.N()) * elem
				for s, degraded := range map[int64]bool{0: false, wm - 1: false, wm: true} {
					before := d.Health().DegradedReads
					buf := make([]byte, stripe)
					if _, err := d.ReadAt(buf, s*stripe); err != nil || !bytes.Equal(buf, data[s*stripe:(s+1)*stripe]) {
						t.Fatalf("stripe %d: %v", s, err)
					}
					if got := d.Health().DegradedReads > before; got != degraded {
						t.Fatalf("stripe %d (watermark %d): degraded=%v", s, wm, got)
					}
				}
			})
		}
	}
}

func TestHealthCounters(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			arch := raid.NewMirrorWithParity(layout.NewShifted(3))
			d := newDevice(t, kind, arch, 2)
			fillRandom(t, d, 30)
			h := d.Health()
			if h.ElementsWritten != int64(2*3*3) {
				t.Fatalf("elements written = %d", h.ElementsWritten)
			}
			if h.DegradedReads != 0 {
				t.Fatalf("degraded reads before failure: %d", h.DegradedReads)
			}
			d.fail(t, data0)
			mustRead(t, d)
			// One degraded element per stripe-row of the failed disk.
			if h := d.Health(); h.DegradedReads != int64(2*3) || h.ParityReads != 0 {
				t.Fatalf("degraded reads = %d, parity reads = %d; want 6, 0", h.DegradedReads, h.ParityReads)
			}
			// Fail the replica-holding disks too: every element of data[0]
			// comes from parity.
			for i := 0; i < 3; i++ {
				d.fail(t, raid.DiskID{Role: raid.RoleMirror, Index: i})
			}
			mustRead(t, d)
			if h := d.Health(); h.ParityReads != int64(2*3) {
				t.Fatalf("parity reads = %d, want 6", h.ParityReads)
			}
			d.rebuild(t, data0)
			if st := d.Stats(); st.Rebuild.Stripes != 2 {
				t.Fatalf("stripes rebuilt = %d, want 2", st.Rebuild.Stripes)
			}
		})
	}
}

func TestMemStore(t *testing.T) {
	m := NewMemStore(16)
	if m.Size() != 16 {
		t.Fatal("size")
	}
	if _, err := m.WriteAt([]byte{1, 2, 3}, 14); err == nil {
		t.Fatal("overflow write accepted")
	}
	if _, err := m.WriteAt([]byte{9}, 15); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := m.ReadAt(b[:], 15); err != nil || b[0] != 9 {
		t.Fatalf("read back: %v %v", b[0], err)
	}
	if _, err := m.ReadAt(b[:], 17); err == nil {
		t.Fatal("out of range read accepted")
	}
	// Offsets near MaxInt64: off+len wraps negative, which must not slip
	// past the bounds check into a slice expression that panics.
	const far = math.MaxInt64 - 10
	if _, err := m.WriteAt(make([]byte, 100), far); err == nil {
		t.Fatal("wrapping write accepted")
	}
	if _, err := m.ReadAt(make([]byte, 100), far); err == nil {
		t.Fatal("wrapping read accepted")
	}
	if _, ok := m.Slice(far, 100); ok {
		t.Fatal("wrapping slice handed out")
	}
}
