package dev

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

const elem = 64

func newDevice(t testing.TB, arch *raid.Mirror, stripes int) *Device {
	t.Helper()
	return New(arch, elem, stripes)
}

func shiftedParityDevice(t testing.TB) *Device {
	return newDevice(t, raid.NewMirrorWithParity(layout.NewShifted(4)), 3)
}

func fillRandom(t *testing.T, d *Device, seed int64) []byte {
	t.Helper()
	data := make([]byte, d.Size())
	rand.New(rand.NewSource(seed)).Read(data)
	if n, err := d.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("fill: n=%d err=%v", n, err)
	}
	return data
}

func mustRead(t *testing.T, d *Device) []byte {
	t.Helper()
	got := make([]byte, d.Size())
	if n, err := d.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	return got
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := shiftedParityDevice(t)
	data := fillRandom(t, d, 1)
	if !bytes.Equal(mustRead(t, d), data) {
		t.Fatal("round trip mismatch")
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedIO(t *testing.T) {
	d := shiftedParityDevice(t)
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
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	// Small read at an odd offset.
	small := make([]byte, 10)
	if _, err := d.ReadAt(small, off+3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, data[off+3:off+13]) {
		t.Fatal("unaligned read mismatch")
	}
}

func TestDegradedReadsAfterSingleFailure(t *testing.T) {
	for _, arch := range []*raid.Mirror{
		raid.NewMirror(layout.NewTraditional(3)),
		raid.NewMirror(layout.NewShifted(3)),
		raid.NewMirrorWithParity(layout.NewShifted(3)),
	} {
		d := newDevice(t, arch, 2)
		data := fillRandom(t, d, 4)
		for _, id := range arch.Disks() {
			dd := newDevice(t, arch, 2)
			if _, err := dd.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if err := dd.FailDisk(id); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustRead(t, dd), data) {
				t.Fatalf("%s: degraded read after failing %v differs", arch.Name(), id)
			}
		}
	}
}

func TestDegradedReadsAfterDoubleFailure(t *testing.T) {
	arch := raid.NewMirrorWithParity(layout.NewShifted(4))
	data := make([]byte, int64(3)*4*4*elem)
	rand.New(rand.NewSource(5)).Read(data)
	for _, failure := range raid.AllDoubleFailures(arch) {
		d := newDevice(t, arch, 3)
		if _, err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		for _, id := range failure {
			if err := d.FailDisk(id); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(mustRead(t, d), data) {
			t.Fatalf("degraded read after %v differs", failure)
		}
	}
}

func TestWritesWhileDegraded(t *testing.T) {
	// Write after a failure: redundancy must carry the new data, and a
	// rebuild must materialize it on the replacement disk.
	arch := raid.NewMirrorWithParity(layout.NewShifted(4))
	d := newDevice(t, arch, 2)
	fillRandom(t, d, 6)
	failed := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := d.FailDisk(failed); err != nil {
		t.Fatal(err)
	}
	update := make([]byte, d.Size())
	rand.New(rand.NewSource(7)).Read(update)
	if _, err := d.WriteAt(update, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, d), update) {
		t.Fatal("degraded write lost data")
	}
	if err := d.Rebuild(failed); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, d), update) {
		t.Fatal("rebuilt device differs")
	}
}

func TestRebuildAllArchitectures(t *testing.T) {
	archs := []*raid.Mirror{
		raid.NewMirror(layout.NewShifted(3)),
		raid.NewMirrorWithParity(layout.NewTraditional(3)),
		raid.NewThreeMirror(layout.NewGeneralShifted(5, 1, 1), layout.NewGeneralShifted(5, 2, 1)),
	}
	for _, arch := range archs {
		d := newDevice(t, arch, 2)
		data := fillRandom(t, d, 8)
		for _, id := range arch.Disks() {
			if err := d.FailDisk(id); err != nil {
				t.Fatal(err)
			}
			if err := d.Rebuild(id); err != nil {
				t.Fatalf("%s: rebuild %v: %v", arch.Name(), id, err)
			}
			if err := d.Scrub(); err != nil {
				t.Fatalf("%s after rebuilding %v: %v", arch.Name(), id, err)
			}
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatalf("%s: data differs after rebuilding %v", arch.Name(), id)
			}
		}
	}
}

func TestDoubleFailureRebuildWithParity(t *testing.T) {
	arch := raid.NewMirrorWithParity(layout.NewShifted(4))
	d := newDevice(t, arch, 2)
	data := fillRandom(t, d, 9)
	// Fail a data disk and a mirror disk (the F3 case with the XOR
	// dependency), then rebuild both.
	f1 := raid.DiskID{Role: raid.RoleData, Index: 0}
	f2 := raid.DiskID{Role: raid.RoleMirror, Index: 2}
	if err := d.FailDisk(f1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailDisk(f2); err != nil {
		t.Fatal(err)
	}
	if err := d.Rebuild(f1); err != nil {
		t.Fatal(err)
	}
	if err := d.Rebuild(f2); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, d), data) {
		t.Fatal("data differs after double rebuild")
	}
}

func TestDataLossBeyondTolerance(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	d := newDevice(t, arch, 1)
	fillRandom(t, d, 10)
	// Shifted plain mirror: data[0] + any mirror disk share one element.
	if err := d.FailDisk(raid.DiskID{Role: raid.RoleData, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.FailDisk(raid.DiskID{Role: raid.RoleMirror, Index: 1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.Size())
	_, err := d.ReadAt(buf, 0)
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("want ErrDataLoss, got %v", err)
	}
}

func TestScrubDetectsCorruption(t *testing.T) {
	d := shiftedParityDevice(t)
	fillRandom(t, d, 11)
	// Corrupt one replica byte behind the device's back.
	id := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	var b [1]byte
	if _, err := d.stores[id].ReadAt(b[:], 10); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := d.stores[id].WriteAt(b[:], 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); !errors.Is(err, ErrScrubMismatch) {
		t.Fatalf("want ErrScrubMismatch, got %v", err)
	}
}

func TestFailDiskValidation(t *testing.T) {
	d := shiftedParityDevice(t)
	if err := d.FailDisk(raid.DiskID{Role: raid.RoleData, Index: 99}); err == nil {
		t.Fatal("unknown disk accepted")
	}
	id := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := d.FailDisk(id); err != nil {
		t.Fatal(err)
	}
	if err := d.FailDisk(id); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("double fail: %v", err)
	}
	if err := d.Rebuild(raid.DiskID{Role: raid.RoleData, Index: 1}); err == nil {
		t.Fatal("rebuild of healthy disk accepted")
	}
}

func TestIOBounds(t *testing.T) {
	d := shiftedParityDevice(t)
	if _, err := d.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative read offset accepted")
	}
	if _, err := d.ReadAt(make([]byte, 1), d.Size()); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := d.WriteAt(make([]byte, 2), d.Size()-1); err == nil {
		t.Error("write past end accepted")
	}
	// Short read at the tail returns io.EOF.
	buf := make([]byte, 2*elem)
	n, err := d.ReadAt(buf, d.Size()-elem)
	if n != elem || !errors.Is(err, io.EOF) {
		t.Errorf("tail read: n=%d err=%v", n, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newDevice(t, raid.NewMirrorWithParity(layout.NewShifted(4)), 4)
	fillRandom(t, d, 12)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, elem)
			for i := 0; i < 50; i++ {
				off := rng.Int63n(d.Size() - elem)
				if seed%2 == 0 {
					rng.Read(buf)
					if _, err := d.WriteAt(buf, off); err != nil {
						errs <- err
						return
					}
				} else if _, err := d.ReadAt(buf, off); err != nil {
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
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
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

// TestFailedDisksOrder pins the order FailedDisks reports (and OpHealth
// ships): the architecture's disk order, whatever order disks failed in.
func TestFailedDisksOrder(t *testing.T) {
	d := shiftedParityDevice(t)
	want := []raid.DiskID{
		{Role: raid.RoleData, Index: 1},
		{Role: raid.RoleMirror, Index: 0},
		{Role: raid.RoleMirror, Index: 3},
	}
	for _, i := range []int{2, 0, 1} {
		if err := d.FailDisk(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 20; run++ { // map iteration order varies per call
		if got := d.FailedDisks(); !slices.Equal(got, want) {
			t.Fatalf("FailedDisks() = %v, want %v", got, want)
		}
	}
}

func TestOnlineRebuildWithConcurrentIO(t *testing.T) {
	// Rebuild releases the lock between stripes: reads and writes issued
	// while the rebuild runs must stay consistent, and the device must
	// scrub clean afterwards.
	arch := raid.NewMirrorWithParity(layout.NewShifted(4))
	d := New(arch, elem, 32)
	var mu sync.Mutex
	shadow := make([]byte, d.Size()) // reference copy guarded by mu
	rand.New(rand.NewSource(20)).Read(shadow)
	if _, err := d.WriteAt(shadow, 0); err != nil {
		t.Fatal(err)
	}
	failed := raid.DiskID{Role: raid.RoleData, Index: 2}
	if err := d.FailDisk(failed); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- d.Rebuild(failed) }()

	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, elem)
	for i := 0; i < 200; i++ {
		off := rng.Int63n(d.Size() - elem)
		if rng.Intn(2) == 0 {
			rng.Read(buf)
			mu.Lock()
			if _, err := d.WriteAt(buf, off); err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
			copy(shadow[off:], buf)
			mu.Unlock()
		} else {
			got := make([]byte, elem)
			mu.Lock()
			if _, err := d.ReadAt(got, off); err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
			want := append([]byte(nil), shadow[off:off+elem]...)
			mu.Unlock()
			if !bytes.Equal(got, want) {
				t.Fatalf("read at %d during rebuild returned stale data", off)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.Size())
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("contents diverged after online rebuild")
	}
}

func TestRebuiltStripesServedFromReplacement(t *testing.T) {
	// After a partial rebuild, reads of rebuilt stripes come from the
	// replacement store even while the disk is still marked failed.
	arch := raid.NewMirror(layout.NewShifted(3))
	d := New(arch, elem, 4)
	data := fillRandom(t, d, 22)
	failed := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := d.FailDisk(failed); err != nil {
		t.Fatal(err)
	}
	// Rebuild only stripe 0.
	if err := d.rebuildStripe(failed, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.progress[failed]; got != 1 {
		t.Fatalf("progress = %d", got)
	}
	// Stripe 0 elements of the failed disk now readable raw.
	d.mu.RLock()
	raw, err := d.readRaw(failed, 0, 2)
	d.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	wantOff := int64(2*3+1) * elem // stripe 0, row 2, disk 1 in row-major
	if !bytes.Equal(raw, data[wantOff:wantOff+elem]) {
		t.Fatal("replacement store holds wrong bytes for rebuilt stripe")
	}
	// The device still reports the disk failed until Rebuild completes.
	if len(d.FailedDisks()) != 1 {
		t.Fatal("disk prematurely returned to service")
	}
}

func TestHealthCounters(t *testing.T) {
	arch := raid.NewMirrorWithParity(layout.NewShifted(3))
	d := New(arch, elem, 2)
	fillRandom(t, d, 30)
	h := d.Health()
	if h.ElementsWritten != int64(2*3*3) {
		t.Fatalf("elements written = %d", h.ElementsWritten)
	}
	if h.DegradedReads != 0 {
		t.Fatalf("degraded reads before failure: %d", h.DegradedReads)
	}
	failed := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := d.FailDisk(failed); err != nil {
		t.Fatal(err)
	}
	mustRead(t, d)
	h = d.Health()
	// One degraded element per stripe-row of the failed disk.
	if h.DegradedReads != int64(2*3) {
		t.Fatalf("degraded reads = %d, want 6", h.DegradedReads)
	}
	if h.ParityFallbacks != 0 {
		t.Fatalf("parity fallbacks = %d with replicas intact", h.ParityFallbacks)
	}
	// Fail the replica-holding disks too: parity path engages.
	for i := 0; i < 3; i++ {
		d.FailDisk(raid.DiskID{Role: raid.RoleMirror, Index: i})
	}
	mustRead(t, d)
	if h := d.Health(); h.ParityFallbacks == 0 {
		t.Fatal("parity fallbacks not counted")
	}
	if err := d.Rebuild(failed); err != nil {
		t.Fatal(err)
	}
	if h := d.Health(); h.StripesRebuilt != 2 {
		t.Fatalf("stripes rebuilt = %d, want 2", h.StripesRebuilt)
	}
}

func TestResilverRepairsCorruption(t *testing.T) {
	d := shiftedParityDevice(t)
	fillRandom(t, d, 50)
	// Corrupt a replica byte and a parity byte behind the device's back.
	for _, id := range []raid.DiskID{
		{Role: raid.RoleMirror, Index: 2},
		{Role: raid.RoleParity, Index: 0},
	} {
		var b [1]byte
		if _, err := d.stores[id].ReadAt(b[:], 5); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xA5
		if _, err := d.stores[id].WriteAt(b[:], 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Scrub(); err == nil {
		t.Fatal("scrub missed planted corruption")
	}
	repaired, err := d.Resilver()
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 2 {
		t.Fatalf("repaired %d elements, want 2", repaired)
	}
	if err := d.Scrub(); err != nil {
		t.Fatalf("scrub after resilver: %v", err)
	}
	// Idempotent: a clean device repairs nothing.
	if n, err := d.Resilver(); err != nil || n != 0 {
		t.Fatalf("second resilver: n=%d err=%v", n, err)
	}
}

func TestResilverSkipsFailedDisks(t *testing.T) {
	d := shiftedParityDevice(t)
	fillRandom(t, d, 51)
	if err := d.FailDisk(raid.DiskID{Role: raid.RoleMirror, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resilver(); err != nil {
		t.Fatalf("resilver with failed disk: %v", err)
	}
}
