package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// testBackends is a set of in-process store servers, one per disk.
type testBackends struct {
	t       testing.TB
	addrs   map[raid.DiskID]string
	servers map[raid.DiskID]*blockserver.Server
	stores  map[raid.DiskID]*dev.MemStore
	// metrics holds each server's counters on a fleet started
	// withMetrics, so tests can count wire frames per backend.
	metrics map[raid.DiskID]*blockserver.Metrics
	// ordered says the fleet was started withOrderedStores; views then
	// holds each disk's store behind the lock it is served through.
	ordered bool
	views   map[raid.DiskID]blockserver.Store
}

// backendSpec is one disk's server as startBackends builds it: store
// starts as the disk's MemStore and may be wrapped, opts are the options
// the server is made with. A backendOpt adjusts it.
type backendSpec struct {
	store blockserver.Store
	opts  []blockserver.ServerOption
}

type backendOpt func(b *testBackends, id raid.DiskID, s *backendSpec)

// withServerOptions gives every server the options: WithCRC for the
// server half of WireCRC mode, WithReadRate for a paced spindle.
func withServerOptions(o ...blockserver.ServerOption) backendOpt {
	return func(_ *testBackends, _ raid.DiskID, s *backendSpec) { s.opts = append(s.opts, o...) }
}

// withFaults wraps the listed disks' stores with fault injection. The
// stores map still holds the raw MemStores, so image comparisons see
// through the injection layer.
func withFaults(inject map[raid.DiskID]faultinject.Config) backendOpt {
	return func(_ *testBackends, id raid.DiskID, s *backendSpec) {
		if cfg, ok := inject[id]; ok {
			s.store = faultinject.Wrap(s.store, cfg)
		}
	}
}

// withOrderedStores serves every store — replacements included — from
// behind a lock (faultinject.OrderedStore), for tests that read and
// write the same elements from several goroutines under the race
// detector. Give it before withFaults, so the faults wrap the lock.
func withOrderedStores() backendOpt {
	return func(b *testBackends, id raid.DiskID, s *backendSpec) {
		b.ordered = true
		s.store = b.order(id, s.store)
	}
}

// order puts id's store behind a lock and remembers the locked view.
func (b *testBackends) order(id raid.DiskID, store blockserver.Store) blockserver.Store {
	b.views[id] = &faultinject.OrderedStore{Store: store}
	return b.views[id]
}

// view is id's store as a test should read it: through the lock when
// the fleet is ordered, raw otherwise.
func (b *testBackends) view(id raid.DiskID) blockserver.Store {
	if v, ok := b.views[id]; ok {
		return v
	}
	return b.stores[id]
}

// withMetrics attaches a blockserver.Metrics to every server.
func withMetrics() backendOpt {
	return func(b *testBackends, id raid.DiskID, s *backendSpec) {
		b.metrics[id] = blockserver.NewMetrics()
		s.opts = append(s.opts, blockserver.WithMetrics(b.metrics[id]))
	}
}

// startBackends serves one MemStore per disk of the architecture.
func startBackends(t testing.TB, arch *raid.Mirror, elementSize int64, stripes int, opts ...backendOpt) *testBackends {
	t.Helper()
	b := &testBackends{
		t:       t,
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
		metrics: map[raid.DiskID]*blockserver.Metrics{},
		views:   map[raid.DiskID]blockserver.Store{},
	}
	t.Cleanup(b.closeAll)
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	for _, id := range arch.Disks() {
		b.stores[id] = dev.NewMemStore(perDisk)
		spec := backendSpec{store: b.stores[id]}
		for _, o := range opts {
			o(b, id, &spec)
		}
		b.servers[id] = blockserver.NewStoreServer(spec.store, spec.opts...)
		addr, err := b.servers[id].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b.addrs[id] = addr.String()
	}
	return b
}

func (b *testBackends) closeAll() {
	for _, srv := range b.servers {
		srv.Close()
	}
}

// kill closes one backend's server so its port stops answering.
func (b *testBackends) kill(id raid.DiskID) {
	b.t.Helper()
	b.servers[id].Close()
}

// replace tears down a disk's server and serves a fresh zeroed store
// (with the given server options), returning its address.
func (b *testBackends) replace(id raid.DiskID, opts ...blockserver.ServerOption) string {
	return b.replaceWrapped(id, nil, opts...)
}

// replaceWrapped is replace with the fresh store served through wrap
// (a fault layer, say) when wrap is not nil.
func (b *testBackends) replaceWrapped(id raid.DiskID, wrap func(blockserver.Store) blockserver.Store, opts ...blockserver.ServerOption) string {
	b.t.Helper()
	b.servers[id].Close()
	store := dev.NewMemStore(b.stores[id].Size())
	var served blockserver.Store = store
	if b.ordered {
		served = b.order(id, store)
	}
	if wrap != nil {
		served = wrap(served)
	}
	srv := blockserver.NewStoreServer(served, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.t.Fatal(err)
	}
	b.stores[id] = store
	b.servers[id] = srv // closeAll picks up the replacement
	return addr.String()
}

// restartServer rebinds a store on a fixed address (a rebooted backend
// whose disk content survived).
func restartServer(store blockserver.Store, addr string) (*blockserver.Server, error) {
	srv := blockserver.NewStoreServer(store)
	if _, err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// fastConfig keeps failover timings test-sized.
func fastConfig(elementSize int64, stripes int) Config {
	return Config{
		ElementSize:  elementSize,
		Stripes:      stripes,
		PoolSize:     3,
		DialTimeout:  time.Second,
		OpTimeout:    2 * time.Second,
		Retries:      1,
		RetryBackoff: 5 * time.Millisecond,
		DeadAfter:    2,
		ProbeEvery:   50 * time.Millisecond,
		MaxProbe:     200 * time.Millisecond,
		RebuildBatch: 2,
	}
}

// slotOf is the dense per-disk index of a disk the volume has.
func slotOf(v *Volume, id raid.DiskID) int {
	slot, _ := v.slot(id)
	return slot
}

func newTestVolume(t testing.TB, arch *raid.Mirror, elementSize int64, stripes int) (*Volume, *testBackends) {
	t.Helper()
	backends := startBackends(t, arch, elementSize, stripes)
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	return v, backends
}

func randomPayload(t testing.TB, v *Volume, seed int64) []byte {
	t.Helper()
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(seed)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestVolumeRoundTrip(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, _ := newTestVolume(t, arch, 64, 3)
	payload := randomPayload(t, v, 1)
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("full read mismatch")
	}
	// Sub-element read-modify-write and unaligned read.
	if _, err := v.WriteAt([]byte("over n sockets"), 100); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 14)
	if _, err := v.ReadAt(small, 100); err != nil {
		t.Fatal(err)
	}
	if string(small) != "over n sockets" {
		t.Fatalf("unaligned read: %q", small)
	}
	rep, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElementsCompared == 0 || len(rep.Skipped) != 0 {
		t.Fatalf("scrub of a healthy volume compared %d elements, skipped %v", rep.ElementsCompared, rep.Skipped)
	}
	h := v.Health()
	if h.ElementsRead == 0 || h.ElementsWritten == 0 {
		t.Fatalf("health counters flat: %+v", h)
	}
	if h.DegradedReads != 0 || h.Failovers != 0 {
		t.Fatalf("healthy volume reported degraded service: %+v", h)
	}
	if len(h.Backends) != len(arch.Disks()) {
		t.Fatalf("health lists %d backends, want %d", len(h.Backends), len(arch.Disks()))
	}
}

// TestVolumeWorkersExitOnClose: the share workers a volume parks after
// mixed reads, writes and scrubs all exit on Close — the goroutine count
// returns to where it was before the volume, within the deadline
// TestHedgedReadNoGoroutineLeak allows.
func TestVolumeWorkersExitOnClose(t *testing.T) {
	const n, stripes, elementSize = 4, 4, 1024
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, elementSize, stripes, withOrderedStores())
	before := runtime.NumGoroutine()
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	randomPayload(t, v, 31)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 3*elementSize)
			for i := 0; i < 50; i++ {
				off := rng.Int63n(v.Size() - int64(len(buf)))
				var err error
				switch w {
				case 0:
					_, err = v.WriteAt(buf, off)
				case 1:
					_, err = v.ReadAt(buf, off)
				default:
					_, err = v.Scrub(context.Background())
					if errors.Is(err, ErrScrubMismatch) {
						err = nil // a scrub racing the writer may see a torn range
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the volume, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestVolumeScrubDetectsCorruption(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, backends := newTestVolume(t, arch, 64, 2)
	randomPayload(t, v, 2)
	// Flip a byte on one mirror store behind the volume's back.
	store := backends.stores[raid.DiskID{Role: raid.RoleMirror, Index: 1}]
	var b [1]byte
	if _, err := store.ReadAt(b[:], 5); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := store.WriteAt(b[:], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Scrub(context.Background()); err == nil {
		t.Fatal("scrub missed a corrupted replica")
	}
}

func TestVolumeDegradedReadAfterFail(t *testing.T) {
	for _, arrName := range []string{"shifted", "traditional"} {
		t.Run(arrName, func(t *testing.T) {
			var arr layout.Arrangement
			if arrName == "shifted" {
				arr = layout.NewShifted(4)
			} else {
				arr = layout.NewTraditional(4)
			}
			v, _ := newTestVolume(t, raid.NewMirror(arr), 64, 2)
			payload := randomPayload(t, v, 3)
			if err := v.Fail(raid.DiskID{Role: raid.RoleData, Index: 1}); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, v.Size())
			if _, err := v.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("degraded read mismatch")
			}
			if h := v.Health(); h.DegradedReads == 0 {
				t.Fatalf("no degraded reads recorded: %+v", h)
			}
			// Writes while degraded skip the failed disk but stay readable.
			patch := []byte("written while degraded")
			if _, err := v.WriteAt(patch, 64); err != nil {
				t.Fatal(err)
			}
			check := make([]byte, len(patch))
			if _, err := v.ReadAt(check, 64); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(check, patch) {
				t.Fatal("degraded write lost")
			}
		})
	}
}

func TestVolumeFailoverToReplicaBackendOnDeadServer(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, backends := newTestVolume(t, arch, 64, 2)
	payload := randomPayload(t, v, 4)
	// Kill a data backend outright — no Fail call. Reads must route to
	// the replicas on other servers via the pool's dead-marking.
	backends.kill(raid.DiskID{Role: raid.RoleData, Index: 2})
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read mismatch")
	}
	h := v.Health()
	if h.Failovers == 0 {
		t.Fatalf("no failovers recorded: %+v", h)
	}
	var deadSeen bool
	for _, b := range h.Backends {
		if b.ID == (raid.DiskID{Role: raid.RoleData, Index: 2}) && b.Dead {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("dead backend not marked in health: %+v", h.Backends)
	}
	// A second full read fails over again, now fast-failing on the dead
	// pool instead of re-timing-out.
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

// expectedDiskImage computes what a disk's store must contain given the
// logical payload, from the arrangement alone: a data or mirror disk's
// element copies, or the parity disk's row XORs.
func expectedDiskImage(arch *raid.Mirror, id raid.DiskID, payload []byte, elementSize int64, stripes int) []byte {
	n := arch.N()
	img := make([]byte, int64(stripes)*int64(n)*elementSize)
	elem := func(stripe, disk, row int) []byte {
		off := (int64(stripe)*int64(n)*int64(n) + int64(row)*int64(n) + int64(disk)) * elementSize
		return payload[off : off+elementSize]
	}
	for stripe := 0; stripe < stripes; stripe++ {
		for r := 0; r < n; r++ {
			off := (int64(stripe)*int64(n) + int64(r)) * elementSize
			switch id.Role {
			case raid.RoleData:
				copy(img[off:], elem(stripe, id.Index, r))
			case raid.RoleParity:
				for d := 0; d < n; d++ {
					gf.XorSlice(elem(stripe, d, r), img[off:off+elementSize])
				}
			default:
				arr := arch.Mirrors()[id.Role-raid.RoleMirror]
				d := arr.DataOf(layout.Addr{Disk: id.Index, Row: r})
				copy(img[off:], elem(stripe, d.Disk, d.Row))
			}
		}
	}
	return img
}

func TestRebuildDiskMatchesLocalRebuild(t *testing.T) {
	const n, stripes = 4, 6
	const elementSize = 128
	for _, arrName := range []string{"shifted", "traditional"} {
		t.Run(arrName, func(t *testing.T) {
			var arr layout.Arrangement
			if arrName == "shifted" {
				arr = layout.NewShifted(n)
			} else {
				arr = layout.NewTraditional(n)
			}
			arch := raid.NewMirror(arr)
			v, backends := newTestVolume(t, arch, elementSize, stripes)
			payload := randomPayload(t, v, 5)
			lost := raid.DiskID{Role: raid.RoleData, Index: 0}
			if err := v.Fail(lost); err != nil {
				t.Fatal(err)
			}
			if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
				t.Fatal(err)
			}
			if err := v.RebuildDisk(context.Background(), lost); err != nil {
				t.Fatal(err)
			}
			// The replacement store must hold exactly what a local rebuild
			// produces for this disk.
			want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
			got := make([]byte, len(want))
			if _, err := backends.stores[lost].ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("network rebuild diverges from local rebuild image")
			}
			clusterRead := make([]byte, v.Size())
			if _, err := v.ReadAt(clusterRead, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(clusterRead, payload) {
				t.Fatal("post-rebuild read diverges from the payload")
			}
			if _, err := v.Scrub(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, d := range v.Disks() {
				if d.State != DiskOnline {
					t.Fatalf("%v still %v after rebuild", d.ID, d.State)
				}
			}
			if h := v.Health(); h.Rebuilds != 1 || h.RebuildBytes == 0 || h.RebuildMBps <= 0 {
				t.Fatalf("rebuild counters wrong: %+v", h)
			}
		})
	}
}

func TestRebuildMirrorDisk(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, backends := newTestVolume(t, arch, 64, 4)
	payload := randomPayload(t, v, 6)
	lost := raid.DiskID{Role: raid.RoleMirror, Index: 2}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	want := expectedDiskImage(arch, lost, payload, 64, 4)
	got := make([]byte, len(want))
	if _, err := backends.stores[lost].ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mirror rebuild image mismatch")
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeWritesDuringRebuildStayConsistent(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, backends := newTestVolume(t, arch, 256, 8)
	payload := randomPayload(t, v, 7)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- v.RebuildDisk(context.Background(), lost) }()
	// Concurrent writes while the rebuild walks its stripe slices.
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 256)
	for i := 0; i < 30; i++ {
		off := rng.Int63n(v.Size() - int64(len(buf)))
		rng.Read(buf)
		if _, err := v.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		copy(payload[off:], buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild content lost concurrent writes")
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWriteBelowWatermarkRollsBack reproduces the stale-rebuild
// hazard: a disk mid-rebuild accepts writes for stripes below its
// watermark, so when such a write dies on the wire the watermark must
// retreat past the missed stripe — otherwise the rebuilt-but-stale copy
// keeps being served and the finishing rebuild marks it clean.
func TestFailedWriteBelowWatermarkRollsBack(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	v, backends := newTestVolume(t, arch, elementSize, stripes)
	payload := randomPayload(t, v, 11)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	// Stage the mid-rebuild state directly: content on the backend is
	// correct (it took every write), the watermark covers all stripes,
	// but the rebuild has not yet returned the disk to service.
	v.updateSlot(slotOf(v, lost), func(s *slotState) error {
		s.failed, s.progress = true, stripes
		return nil
	})
	// The backend machine drops off the network, then a write lands on a
	// stripe below the watermark: replicas take it, the rebuilt copy
	// cannot.
	addr := backends.addrs[lost]
	store := backends.stores[lost]
	backends.kill(lost)
	patch := bytes.Repeat([]byte{0xAB}, elementSize)
	off := int64(n) * int64(n) * elementSize // stripe 1, row 0 of data[0]
	if _, err := v.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(payload[off:], patch)
	at := v.state.Load().slots[slotOf(v, lost)]
	progress, stillFailed := at.progress, at.failed
	if !stillFailed || progress > 1 {
		t.Fatalf("watermark not rolled back past the missed write: failed=%v progress=%d", stillFailed, progress)
	}
	// The stale element must not be served: the read fails over to a
	// replica that took the write.
	check := make([]byte, elementSize)
	if _, err := v.ReadAt(check, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, patch) {
		t.Fatal("read served the stale below-watermark element")
	}
	// The backend reboots with its stale disk; the rebuild restarts from
	// the rolled-back watermark and re-recovers the missed stripe.
	srv, err := restartServer(store, addr)
	if err != nil {
		t.Fatal(err)
	}
	backends.servers[lost] = srv
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := v.RebuildDisk(context.Background(), lost)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // dead-marked pool: wait out the probe window
	}
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := store.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rebuild left the missed write stale on the replacement backend")
	}
	full := make([]byte, v.Size())
	if _, err := v.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("post-rebuild read diverges from payload")
	}
	rep, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("post-rebuild scrub skipped %v", rep.Skipped)
	}
}

func TestRebuildDiskRejectsConcurrentRebuild(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 2)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	v.updateSlot(slotOf(v, lost), func(s *slotState) error {
		s.rebuilding = true // a RebuildDisk is in flight
		return nil
	})
	if err := v.RebuildDisk(context.Background(), lost); !errors.Is(err, ErrRebuildInProgress) {
		t.Fatalf("second concurrent rebuild returned %v, want ErrRebuildInProgress", err)
	}
}

// TestScrubReportsSkippedBackends: an unreachable backend must surface
// in the scrub report instead of silently shrinking coverage to nothing.
func TestScrubReportsSkippedBackends(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, backends := newTestVolume(t, arch, 64, 2)
	randomPayload(t, v, 12)
	dead := raid.DiskID{Role: raid.RoleMirror, Index: 0}
	backends.kill(dead)
	rep, err := v.Scrub(context.Background())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("scrub with an unreachable backend returned %v, want ErrDegraded", err)
	}
	found := false
	for _, id := range rep.Skipped {
		if id == dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead backend %v missing from skipped list %v", dead, rep.Skipped)
	}
	if rep.ElementsCompared == 0 {
		t.Fatal("scrub compared nothing despite surviving backends")
	}
}

func TestVolumeErrors(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 2)
	bogus := raid.DiskID{Role: raid.RoleData, Index: 9}
	if err := v.Fail(bogus); err == nil {
		t.Fatal("failed an unknown disk")
	}
	if err := v.RebuildDisk(context.Background(), raid.DiskID{Role: raid.RoleData, Index: 0}); err == nil {
		t.Fatal("rebuilt a healthy disk")
	}
	if _, err := v.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative-offset read accepted")
	}
	// io.ReaderAt contract: reads at or past the end return io.EOF, so
	// io.SectionReader-style wrappers terminate cleanly.
	if _, err := v.ReadAt(make([]byte, 1), v.Size()); err != io.EOF {
		t.Fatalf("read at end returned %v, want io.EOF", err)
	}
	if _, err := v.ReadAt(make([]byte, 1), v.Size()+1); err != io.EOF {
		t.Fatalf("read past end returned %v, want io.EOF", err)
	}
	if _, err := v.WriteAt(make([]byte, 2), v.Size()-1); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	// Missing backend address at construction.
	if _, err := New(arch, map[raid.DiskID]string{}, Config{}); err == nil {
		t.Fatal("volume built without backends")
	}
	// A parity architecture's parity disk needs its address too.
	parity := raid.NewMirrorWithParity(layout.NewShifted(3))
	addrs := map[raid.DiskID]string{}
	for _, id := range parity.Disks()[:len(parity.Disks())-1] {
		addrs[id] = "127.0.0.1:1"
	}
	if _, err := New(parity, addrs, Config{}); err == nil {
		t.Fatal("volume built without the parity disk's backend")
	}
}
