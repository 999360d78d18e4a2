package shiftedmirror_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
)

func TestFacadeQuickstartPath(t *testing.T) {
	arch := shiftedmirror.NewShiftedMirror(5)
	plan, err := arch.RecoveryPlan([]shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AvailAccesses() != 1 {
		t.Fatalf("shifted mirror single failure: %d accesses", plan.AvailAccesses())
	}
	trad := shiftedmirror.NewTraditionalMirror(5)
	tplan, err := trad.RecoveryPlan([]shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if tplan.AvailAccesses() != 5 {
		t.Fatalf("traditional mirror single failure: %d accesses", tplan.AvailAccesses())
	}
}

func TestFacadeProperties(t *testing.T) {
	p := shiftedmirror.CheckProperties(shiftedmirror.NewShiftedArrangement(6))
	if !p.All() {
		t.Fatalf("shifted arrangement properties: %v", p)
	}
	p = shiftedmirror.CheckProperties(shiftedmirror.NewTraditionalArrangement(6))
	if p.P1 {
		t.Fatal("traditional arrangement should not satisfy P1")
	}
	p = shiftedmirror.CheckProperties(shiftedmirror.NewIteratedArrangement(3, 3))
	if !p.P1 || !p.P2 || p.P3 {
		t.Fatalf("iterated(3) at n=3: %v", p)
	}
}

func TestFacadeVerifyRecovery(t *testing.T) {
	arch := shiftedmirror.NewShiftedMirrorWithParity(4)
	failed := []shiftedmirror.DiskID{
		{Role: shiftedmirror.RoleData, Index: 0},
		{Role: shiftedmirror.RoleMirror, Index: 2},
	}
	if err := shiftedmirror.VerifyRecovery(arch, 3, 32, 1, failed); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := shiftedmirror.DefaultSimConfig()
	cfg.Stripes = 8
	s := shiftedmirror.NewSimulator(shiftedmirror.NewShiftedMirror(4), cfg)
	st, err := s.Reconstruct([]shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.AvailThroughputMBs <= 60 {
		t.Fatalf("shifted throughput %.1f MB/s, expected parallel speedup", st.AvailThroughputMBs)
	}
}

func TestFacadeImprovements(t *testing.T) {
	if shiftedmirror.MirrorImprovement(7) != 7 {
		t.Fatal("mirror improvement should be n")
	}
	if shiftedmirror.MirrorParityImprovement(7) != 15.0/4 {
		t.Fatal("parity improvement should be (2n+1)/4")
	}
}

func TestFacadeThreeMirror(t *testing.T) {
	arch := shiftedmirror.NewShiftedThreeMirror(5)
	if arch.FaultTolerance() != 2 {
		t.Fatal("three-mirror fault tolerance")
	}
	for _, failure := range shiftedmirror.AllDoubleFailures(arch) {
		if err := shiftedmirror.VerifyRecovery(arch, 1, 8, 2, failure); err != nil {
			t.Fatalf("%v: %v", failure, err)
		}
	}
}

func TestFacadeWorkloads(t *testing.T) {
	writes := shiftedmirror.LargeWrites(1, 10, 3, 4)
	if len(writes) != 10 {
		t.Fatal("write workload size")
	}
	reads := shiftedmirror.UserReads(1, 10, 3, 4, 0.01)
	if len(reads) != 10 {
		t.Fatal("read workload size")
	}
}

func TestFacadeRender(t *testing.T) {
	out := shiftedmirror.RenderLayout(shiftedmirror.NewShiftedArrangement(3))
	if !strings.Contains(out, "mirror array") {
		t.Fatalf("render: %q", out)
	}
}

func ExampleNewShiftedMirror() {
	arch := shiftedmirror.NewShiftedMirror(3)
	plan, _ := arch.RecoveryPlan([]shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 0}})
	fmt.Println("accesses to recover a failed disk:", plan.AvailAccesses())
	// Output: accesses to recover a failed disk: 1
}

func ExampleRenderLayout() {
	fmt.Print(shiftedmirror.RenderLayout(shiftedmirror.NewShiftedArrangement(3)))
	// Output:
	// data array    mirror array (shifted)
	//   1   2   3     1   4   7
	//   4   5   6     8   2   5
	//   7   8   9     6   9   3
}

func TestFacadeParseArrangement(t *testing.T) {
	arr, err := shiftedmirror.ParseArrangement("iterated:5", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !shiftedmirror.CheckProperties(arr).All() {
		t.Fatal("iterated:5 at n=3 should satisfy all properties")
	}
	if _, err := shiftedmirror.ParseArrangement("nope", 3); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestFacadeDiskModels(t *testing.T) {
	models := shiftedmirror.DiskModels()
	for _, name := range []string{"savvio", "nearline", "ssd"} {
		p, ok := models[name]
		if !ok {
			t.Fatalf("model %q missing", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFacadeMTTDL(t *testing.T) {
	arch := shiftedmirror.NewShiftedMirrorWithParity(3)
	v, err := shiftedmirror.MTTDL(arch, 1.0/1e6, shiftedmirror.ConstantRepair(24))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("MTTDL = %v", v)
	}
	// Repair rates from the simulator plug in directly.
	cfg := shiftedmirror.DefaultSimConfig()
	cfg.Stripes = 4
	sim := shiftedmirror.NewSimulator(arch, cfg)
	v2, err := shiftedmirror.MTTDL(arch, 1.0/1e6, sim.RepairRate(17_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= 0 {
		t.Fatalf("simulated-repair MTTDL = %v", v2)
	}
}

func TestFacadeDevice(t *testing.T) {
	d := shiftedmirror.NewDevice(shiftedmirror.NewShiftedMirror(3), 64, 2)
	payload := []byte("hello shifted world")
	if _, err := d.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	if err := d.Fail(shiftedmirror.DiskID{Role: shiftedmirror.RoleData, Index: 0}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("degraded read = %q", got)
	}
}

func TestFacadeFileDevice(t *testing.T) {
	dir := t.TempDir()
	arch := shiftedmirror.NewShiftedMirrorWithParity(3)
	d, err := shiftedmirror.CreateDeviceOnFiles(arch, 64, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("persist me"), 0); err != nil {
		t.Fatal(err)
	}
	d.Close()
	re, err := shiftedmirror.OpenDeviceOnFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := make([]byte, 10)
	if _, err := re.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist me" {
		t.Fatalf("reopened device returned %q", got)
	}
	if h := re.Health(); h.ElementsRead == 0 {
		t.Fatal("health counters not exposed")
	}
}

// serveStores serves one fresh store per disk of arch over loopback
// TCP, returning the backend address map a cluster or shard group takes.
func serveStores(t *testing.T, arch *shiftedmirror.Mirror, diskSize int64) map[shiftedmirror.DiskID]string {
	t.Helper()
	addrs := map[shiftedmirror.DiskID]string{}
	for _, id := range arch.Disks() {
		addrs[id] = serveStore(t, diskSize)
	}
	return addrs
}

func serveStore(t *testing.T, diskSize int64) string {
	t.Helper()
	srv := blockserver.NewStoreServer(dev.NewMemStore(diskSize))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// TestFacadeServeDevice serves a mirror-with-parity device's disks over
// TCP, one store per backend, and drives it as a ClusterVolume: a write,
// a data disk and the mirror disk holding one of its replicas lost, the
// doubly-lost elements read back from parity, both disks rebuilt onto
// fresh backends and a clean scrub.
func TestFacadeServeDevice(t *testing.T) {
	const n, elementSize, stripes = 3, 64, 2
	arch := shiftedmirror.NewShiftedMirrorWithParity(n)
	v, err := shiftedmirror.NewClusterVolume(arch, serveStores(t, arch, stripes*n*elementSize),
		shiftedmirror.WithGeometry(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	want := make([]byte, v.Size())
	for i := range want {
		want[i] = byte(i*7 + i>>8)
	}
	if _, err := v.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	lost := []shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 0}, {Role: shiftedmirror.RoleMirror, Index: 1}}
	for _, id := range lost {
		if err := v.Fail(id); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("degraded read: %v", err)
	}
	if h := v.Health(); h.ParityReads != stripes {
		t.Fatalf("%d elements read from parity, want one per stripe", h.ParityReads)
	}
	ctx := context.Background()
	for _, id := range lost {
		if err := v.ReplaceBackend(id, serveStore(t, stripes*n*elementSize)); err != nil {
			t.Fatal(err)
		}
		if err := v.RebuildDisk(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Scrub(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after rebuild: %v", err)
	}
}

// TestFacadeShardedParity opens a sharded volume over a mirror-with-
// parity architecture and rebuilds one group's parity disk onto a fresh
// backend: the other group serves no rebuild read, and the rebuilt
// parity scrubs clean.
func TestFacadeShardedParity(t *testing.T) {
	const n, elementSize, stripes = 3, 256, 4
	arch := shiftedmirror.NewShiftedMirrorWithParity(n)
	groups := []map[shiftedmirror.DiskID]string{
		serveStores(t, arch, stripes*n*elementSize),
		serveStores(t, arch, stripes*n*elementSize),
	}
	v, err := shiftedmirror.NewShardedVolume(arch, groups, shiftedmirror.WithGeometry(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	want := make([]byte, v.Size())
	for i := range want {
		want[i] = byte(i*13 + i>>9)
	}
	if _, err := v.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	parity := shiftedmirror.DiskID{Role: shiftedmirror.RoleParity}
	ctx := context.Background()
	if err := v.Fail(1, parity); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(1, parity, serveStore(t, stripes*n*elementSize)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(ctx, 1, parity); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	for _, g := range st.PerGroup {
		var sources int64
		for _, b := range g.Cluster.Backends {
			sources += b.RebuildReadElements
		}
		if want := int64(0); g.Group == 1 {
			want = stripes * n * n // every data element of every row, once
			if sources != want {
				t.Fatalf("group 1's parity rebuild read %d elements, want %d", sources, want)
			}
		} else if sources != want {
			t.Fatalf("group %d served %d rebuild reads for another group's disk", g.Group, sources)
		}
	}
	if _, err := v.Scrub(ctx); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after the parity rebuild: %v", err)
	}
}

// TestWriteNearMaxInt64: a write whose end wraps int64 is refused by
// every kind of volume with a plain bounds error before any I/O. The
// bounds checks once formed off+len(p), which wrapped negative and let
// the write through: into a panic in the sharded volume's segment split,
// a fan-out to every backend answered with remote errors, or — under
// WireCRC — a report of data loss.
func TestWriteNearMaxInt64(t *testing.T) {
	const n, elementSize, stripes = 3, 64, 2
	arch := shiftedmirror.NewShiftedMirror(n)
	// serve starts one group of metered store servers; moved counts the
	// data ops they have answered.
	var meters []*blockserver.Metrics
	moved := func() (ops int64) {
		for _, m := range meters {
			for name, op := range m.Snapshot().Ops {
				if name != "features" && name != "size" {
					ops += op.Ops
				}
			}
		}
		return ops
	}
	serve := func(t *testing.T, opts ...blockserver.ServerOption) map[shiftedmirror.DiskID]string {
		addrs := map[shiftedmirror.DiskID]string{}
		for _, id := range arch.Disks() {
			m := blockserver.NewMetrics()
			meters = append(meters, m)
			srv := blockserver.NewStoreServer(dev.NewMemStore(stripes*n*elementSize), append(opts, blockserver.WithMetrics(m))...)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[id] = addr.String()
		}
		return addrs
	}
	type volume interface {
		WriteAt([]byte, int64) (int, error)
		Close()
	}
	geometry := shiftedmirror.WithGeometry(elementSize, stripes)
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (volume, func() int64)
	}{
		{"sharded", func(t *testing.T) (volume, func() int64) {
			v, err := shiftedmirror.NewShardedVolume(arch, []map[shiftedmirror.DiskID]string{serve(t), serve(t)}, geometry)
			if err != nil {
				t.Fatal(err)
			}
			return v, moved
		}},
		{"cluster", func(t *testing.T) (volume, func() int64) {
			v, err := shiftedmirror.NewClusterVolume(arch, serve(t), geometry)
			if err != nil {
				t.Fatal(err)
			}
			return v, moved
		}},
		{"cluster/crc", func(t *testing.T) (volume, func() int64) {
			v, err := shiftedmirror.NewClusterVolume(arch, serve(t, blockserver.WithCRC(elementSize)), geometry, shiftedmirror.WithWireCRC(elementSize))
			if err != nil {
				t.Fatal(err)
			}
			return v, moved
		}},
		{"device", func(t *testing.T) (volume, func() int64) {
			d := shiftedmirror.NewDevice(arch, elementSize, stripes)
			return d, func() int64 { return d.Health().ElementsWritten }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meters = nil
			w, written := tc.open(t)
			defer w.Close()
			for _, off := range []int64{math.MaxInt64 - 8, math.MaxInt64 - 15, math.MaxInt64} {
				_, err := w.WriteAt(make([]byte, 16), off)
				if err == nil || errors.Is(err, shiftedmirror.ErrDataLoss) || shiftedmirror.IsRemoteError(err) {
					t.Fatalf("write of 16 bytes at %d: %v, want a bounds error", off, err)
				}
			}
			if k := written(); k != 0 {
				t.Fatalf("the refused writes moved %d ops or elements", k)
			}
		})
	}
}

// TestFacadeClusterVolume drives the option-first cluster surface and
// the unified error taxonomy end to end: NewClusterVolume with
// functional options, the context-first data path, and errors.Is
// against the facade sentinels.
func TestFacadeClusterVolume(t *testing.T) {
	arch := shiftedmirror.NewShiftedMirror(3)
	servers := map[shiftedmirror.DiskID]*blockserver.Server{}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	backends := map[shiftedmirror.DiskID]string{}
	for _, id := range arch.Disks() {
		srv := blockserver.NewStoreServer(dev.NewMemStore(2 * 3 * 64))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = srv
		backends[id] = addr.String()
	}

	reg := shiftedmirror.NewRegistry()
	v, err := shiftedmirror.NewClusterVolume(arch, backends,
		shiftedmirror.WithGeometry(64, 2),
		shiftedmirror.WithTimeouts(time.Second, 2*time.Second),
		shiftedmirror.WithHedging(0.9, time.Millisecond, 10*time.Millisecond),
		shiftedmirror.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	payload := []byte("context-first cluster facade")
	ctx := context.Background()
	if _, err := v.WriteAtCtx(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("cluster read %q", got)
	}

	// The hedge series registered through the facade option.
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sm_cluster_hedge_wins_total") {
		t.Fatal("hedge metrics missing from facade-registered exposition")
	}

	// Unified taxonomy: a scrub with an unreachable backend reports
	// ErrDegraded through the facade sentinel.
	dead := shiftedmirror.DiskID{Role: shiftedmirror.RoleMirror, Index: 0}
	servers[dead].Close()
	rep, err := v.Scrub(ctx)
	if !errors.Is(err, shiftedmirror.ErrDegraded) {
		t.Fatalf("scrub with dead backend returned %v, want ErrDegraded", err)
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("degraded scrub reported no skipped backends")
	}
	// And a rebuild of a healthy disk keeps its plain rejection.
	if err := v.RebuildDisk(ctx, dead); err == nil {
		t.Fatal("rebuilt a disk that was never failed")
	}
}

// TestFacadeSubElementWritersKeepEachOthersBytes is the sharded-facade
// leg of cluster.TestSubElementWritersKeepEachOthersBytes: writers that
// each keep rewriting their own slice of one element — here an element
// of the second group — must all find their last slice on both the data
// and the mirror backend afterwards. A volume that read-modify-wrote
// whole elements under a shared lock lost such updates.
func TestFacadeSubElementWritersKeepEachOthersBytes(t *testing.T) {
	const n, stripes, elementSize = 3, 2, 1024
	const writers, rounds = 8, 60
	const slice = elementSize / writers
	arch := shiftedmirror.NewShiftedMirror(n)
	var groups []map[shiftedmirror.DiskID]string
	var stores []map[shiftedmirror.DiskID]*dev.MemStore
	for g := 0; g < 2; g++ {
		addrs, mem := map[shiftedmirror.DiskID]string{}, map[shiftedmirror.DiskID]*dev.MemStore{}
		for _, id := range arch.Disks() {
			mem[id] = dev.NewMemStore(stripes * n * elementSize)
			srv := blockserver.NewStoreServer(mem[id])
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[id] = addr.String()
		}
		groups, stores = append(groups, addrs), append(stores, mem)
	}
	v, err := shiftedmirror.NewShardedVolume(arch, groups, shiftedmirror.WithGeometry(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// Logical stripe 1 is group 1's stripe 0 (stripes are dealt
	// round-robin); the shared element is its (disk 2, row 1).
	const group, disk, row = 1, 2, 1
	off := int64(n*n+row*n+disk) * elementSize
	want := make([]byte, elementSize)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := want[w*slice : (w+1)*slice]
			for r := 0; r < rounds; r++ {
				for i := range mine {
					mine[i] = byte(w*rounds + r + i)
				}
				if _, err := v.WriteAt(mine, off+int64(w*slice)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	mirror := arch.Mirrors()[0].MirrorOf(layout.Addr{Disk: disk, Row: row})
	got := make([]byte, elementSize)
	for _, c := range []struct {
		id  shiftedmirror.DiskID
		row int
	}{
		{shiftedmirror.DiskID{Role: shiftedmirror.RoleData, Index: disk}, row},
		{shiftedmirror.DiskID{Role: shiftedmirror.RoleMirror, Index: mirror.Disk}, mirror.Row},
	} {
		if _, err := stores[group][c.id].ReadAt(got, int64(c.row)*elementSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the copy on group %d %v lost a writer's last slice", group, c.id)
		}
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeShardedOptions checks, through NewShardedVolume over
// loopback store servers (two groups of n = 3), that each volume-side
// option does what its documentation says — by its effect on the
// volume's own reports, not by reading back a config field.
func TestFacadeShardedOptions(t *testing.T) {
	// 40 stripes are three rebuild slices: Stats can look in between.
	const n, stripes, elementSize = 3, 40, 4096
	arch := shiftedmirror.NewShiftedMirror(n)
	straggler := shiftedmirror.DiskID{Role: shiftedmirror.RoleData, Index: 0} // of group 0
	lost := shiftedmirror.DiskID{Role: shiftedmirror.RoleData, Index: 1}      // of each group

	// readBack writes a pattern over the whole volume and reads it back.
	readBack := func(t *testing.T, v *shiftedmirror.ShardedVolume) {
		t.Helper()
		want := make([]byte, v.Size())
		for i := range want {
			want[i] = byte(i*7 + i>>8)
		}
		if _, err := v.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := v.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read diverges from what was written")
		}
	}

	for _, tc := range []struct {
		name   string
		server []blockserver.ServerOption // every backend's
		slow   *faultinject.Config        // group 0's straggler, if any
		option shiftedmirror.Option
		check  func(t *testing.T, v *shiftedmirror.ShardedVolume, groups []map[shiftedmirror.DiskID]string)
	}{{
		name:   "WithWireCRC",
		server: []blockserver.ServerOption{blockserver.WithCRC(elementSize)},
		option: shiftedmirror.WithWireCRC(elementSize),
		check: func(t *testing.T, v *shiftedmirror.ShardedVolume, _ []map[shiftedmirror.DiskID]string) {
			readBack(t, v)
			rep, err := v.Scrub(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ElementsCompared == 0 || rep.ChecksumCompared != rep.ElementsCompared {
				t.Fatalf("scrub compared %d of %d elements by checksum, want all", rep.ChecksumCompared, rep.ElementsCompared)
			}
		},
	}, {
		name:   "WithPipeline",
		option: shiftedmirror.WithPipeline(0),
		check: func(t *testing.T, v *shiftedmirror.ShardedVolume, _ []map[shiftedmirror.DiskID]string) {
			readBack(t, v)
			for _, g := range v.Stats().PerGroup {
				if p := g.Cluster.Pipeline; !p.Enabled || p.Submitted == 0 {
					t.Fatalf("group %d moved no op over a pipelined connection: %+v", g.Group, p)
				}
			}
		},
	}, {
		name:   "WithHedging",
		slow:   &faultinject.Config{Seed: 1, StallEvery: 1, StallFor: 60 * time.Millisecond},
		option: shiftedmirror.WithHedging(0.9, time.Millisecond, 5*time.Millisecond),
		check: func(t *testing.T, v *shiftedmirror.ShardedVolume, _ []map[shiftedmirror.DiskID]string) {
			readBack(t, v)
			if h := v.Stats().PerGroup[0].Cluster.Hedge; h.Attempts == 0 {
				t.Fatalf("no hedge fired against a 60ms straggler: %+v", h)
			}
		},
	}, {
		name:   "WithRebuildQoS",
		option: shiftedmirror.WithRebuildQoS(20*time.Millisecond, 5),
		check: func(t *testing.T, v *shiftedmirror.ShardedVolume, _ []map[shiftedmirror.DiskID]string) {
			for _, g := range v.Stats().PerGroup {
				if q := g.Cluster.QoS; !q.Enabled || q.SLO != 0.02 {
					t.Fatalf("group %d has no QoS controller holding 20ms: %+v", g.Group, q)
				}
			}
		},
	}, {
		name:   "WithRebuildConcurrency",
		server: []blockserver.ServerOption{blockserver.WithReadRate(4e6)}, // ~40ms per rebuild
		option: shiftedmirror.WithRebuildConcurrency(1),
		check: func(t *testing.T, v *shiftedmirror.ShardedVolume, groups []map[shiftedmirror.DiskID]string) {
			for gid, addrs := range groups {
				if err := v.Fail(gid, lost); err != nil {
					t.Fatal(err)
				}
				if err := v.ReplaceBackend(gid, lost, addrs[lost]); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() { done <- v.RebuildPending(context.Background()) }()
			var peak int64
			for rebuilding := true; rebuilding; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					rebuilding = false
				default:
					peak = max(peak, v.Stats().RebuildActive)
				}
			}
			if peak != 1 {
				t.Fatalf("saw %d rebuilds in flight at once, want the scheduler to run exactly 1", peak)
			}
			if st := v.Stats(); st.Rebuilds != 2 || st.Placement.Rollup.Online != len(st.Placement.Devices) {
				t.Fatalf("after RebuildPending: %d rebuilds, placement %+v", st.Rebuilds, st.Placement.Rollup)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var groups []map[shiftedmirror.DiskID]string
			for g := 0; g < 2; g++ {
				addrs := map[shiftedmirror.DiskID]string{}
				for _, id := range arch.Disks() {
					var store blockserver.Store = dev.NewMemStore(stripes * n * elementSize)
					if tc.slow != nil && g == 0 && id == straggler {
						store = faultinject.Wrap(store, *tc.slow)
					}
					srv := blockserver.NewStoreServer(store, tc.server...)
					addr, err := srv.Listen("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					addrs[id] = addr.String()
				}
				groups = append(groups, addrs)
			}
			v, err := shiftedmirror.NewShardedVolume(arch, groups, shiftedmirror.WithGeometry(elementSize, stripes), tc.option)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			tc.check(t, v, groups)
		})
	}
}
