package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// groupBackends serves one in-process MemStore per disk of one group
// over loopback TCP, with the same kill/replace lifecycle helpers the
// cluster package's tests use.
type groupBackends struct {
	tb      testing.TB
	addrs   map[raid.DiskID]string
	servers map[raid.DiskID]*blockserver.Server
	stores  map[raid.DiskID]*dev.MemStore
	// gates, on a fleet started gated, holds the gate each disk's store
	// — a replacement's included — is served through, so a test can park
	// a rebuild's gather mid-slice.
	gates map[raid.DiskID]*faultinject.Gate
	// ordered serves each store from behind a lock
	// (faultinject.OrderedStore), for tests whose concurrent writers
	// overlap: the race detector cannot see the ordering of two
	// connections.
	ordered bool
}

func startGroupBackends(tb testing.TB, arch *raid.Mirror, elementSize int64, stripes int) *groupBackends {
	return startBackends(tb, arch, elementSize, stripes, false, false)
}

func startGatedGroupBackends(tb testing.TB, arch *raid.Mirror, elementSize int64, stripes int) *groupBackends {
	return startBackends(tb, arch, elementSize, stripes, true, false)
}

func startOrderedGroupBackends(tb testing.TB, arch *raid.Mirror, elementSize int64, stripes int) *groupBackends {
	return startBackends(tb, arch, elementSize, stripes, false, true)
}

func startBackends(tb testing.TB, arch *raid.Mirror, elementSize int64, stripes int, gated, ordered bool) *groupBackends {
	tb.Helper()
	b := &groupBackends{
		tb:      tb,
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
		ordered: ordered,
	}
	if gated {
		b.gates = map[raid.DiskID]*faultinject.Gate{}
	}
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	for _, id := range arch.Disks() {
		b.serve(id, perDisk)
	}
	tb.Cleanup(func() {
		for _, srv := range b.servers {
			srv.Close()
		}
	})
	return b
}

// serve starts a server for id over a fresh zeroed store and records its
// address.
func (b *groupBackends) serve(id raid.DiskID, size int64) string {
	b.tb.Helper()
	store := dev.NewMemStore(size)
	var served blockserver.Store = store
	if b.ordered {
		served = &faultinject.OrderedStore{Store: store}
	}
	if b.gates != nil {
		b.gates[id] = faultinject.NewGate(store)
		served = b.gates[id]
	}
	srv := blockserver.NewStoreServer(served)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.tb.Fatal(err)
	}
	b.servers[id] = srv
	b.stores[id] = store
	b.addrs[id] = addr.String()
	return addr.String()
}

// kill takes a disk's server down for good. Its port stays bound to a
// listener that drops every connection, so the volume's redials meet a
// dead backend rather than whatever server another test binary running
// alongside binds on the freed port next.
func (b *groupBackends) kill(id raid.DiskID) {
	b.tb.Helper()
	b.servers[id].Close()
	ln, err := net.Listen("tcp", b.addrs[id])
	if err != nil {
		b.tb.Fatalf("hold the port of killed %v: %v", id, err)
	}
	b.tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
}

// replace tears down a disk's server and serves a fresh zeroed store.
func (b *groupBackends) replace(id raid.DiskID) string {
	b.tb.Helper()
	b.servers[id].Close()
	return b.serve(id, b.stores[id].Size())
}

func fastClusterConfig(elementSize int64, stripes int) cluster.Config {
	return cluster.Config{
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

// newTestShard builds a sharded volume of len(stripesPer) groups, each
// an n×n shifted mirror with its own loopback backends; stripesPer[i]
// is group i's stripe count. tweak, if given, adjusts every child's
// configuration.
func newTestShard(tb testing.TB, n int, elementSize int64, stripesPer []int, cfg Config, tweak ...func(*cluster.Config)) (*ShardedVolume, []*groupBackends) {
	tb.Helper()
	return newTestShardOn(tb, startGroupBackends, n, elementSize, stripesPer, cfg, tweak...)
}

// newTestShardOn is newTestShard with the groups' fleets started by
// start.
func newTestShardOn(tb testing.TB, start func(testing.TB, *raid.Mirror, int64, int) *groupBackends, n int, elementSize int64, stripesPer []int, cfg Config, tweak ...func(*cluster.Config)) (*ShardedVolume, []*groupBackends) {
	tb.Helper()
	children := make([]*cluster.Volume, len(stripesPer))
	backends := make([]*groupBackends, len(stripesPer))
	for i, stripes := range stripesPer {
		arch := raid.NewMirror(layout.NewShifted(n))
		backends[i] = start(tb, arch, elementSize, stripes)
		ccfg := fastClusterConfig(elementSize, stripes)
		for _, f := range tweak {
			f(&ccfg)
		}
		v, err := cluster.New(arch, backends[i].addrs, ccfg)
		if err != nil {
			tb.Fatal(err)
		}
		children[i] = v
	}
	s, err := New(children, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s, backends
}

func shardPayload(tb testing.TB, s *ShardedVolume, seed int64) []byte {
	tb.Helper()
	payload := make([]byte, s.Size())
	rand.New(rand.NewSource(seed)).Read(payload)
	if _, err := s.WriteAt(payload, 0); err != nil {
		tb.Fatal(err)
	}
	return payload
}

func TestShardRoundTrip(t *testing.T) {
	s, _ := newTestShard(t, 3, 64, []int{2, 3, 2}, Config{})
	payload := shardPayload(t, s, 1)
	got := make([]byte, s.Size())
	if n, err := s.ReadAt(got, 0); err != nil || int64(n) != s.Size() {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("full read mismatch")
	}
	// Unaligned read-modify-write across the first group boundary: the
	// round-robin extent table puts logical stripes 0 and 1 on different
	// groups, so a write straddling stripe 0's end exercises the split.
	stripeB := int64(3*3) * 64
	msg := []byte("straddling the shard boundary")
	at := stripeB - 10
	if _, err := s.WriteAt(msg, at); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := s.ReadAt(back, at); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatalf("boundary read: %q", back)
	}
	if splits := s.Stats().BoundarySplits; splits < 2 {
		t.Fatalf("boundary write+read recorded %d splits, want >= 2", splits)
	}
}

// TestOneExchangePerBackendPerGroup: the round-robin deal puts a 1 MiB
// request of the benchmark's geometry on groups 0, 1, 0, 1, so each
// group owns two of its four stripes. Handed to the group as one
// vectored op, those cost each backend they touch one request — a read
// each data backend, a write every backend of both groups — where a
// child op per segment costs two.
func TestOneExchangePerBackendPerGroup(t *testing.T) {
	const n, elementSize, stripes = 4, 16 << 10, 4
	s, _ := newTestShard(t, n, elementSize, []int{stripes, stripes}, Config{})
	buf := make([]byte, 1<<20)
	rand.New(rand.NewSource(31)).Read(buf)
	count := func(what string, op func() error, want func(raid.DiskID) int64) {
		t.Helper()
		before := map[int][]cluster.BackendHealth{}
		for _, gid := range s.Groups() {
			vol, _ := s.GroupVolume(gid)
			before[gid] = vol.Health().Backends
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		for _, gid := range s.Groups() {
			vol, _ := s.GroupVolume(gid)
			for i, b := range vol.Health().Backends {
				if got := b.Requests - before[gid][i].Requests; got != want(b.ID) {
					t.Errorf("%s: group %d backend %v took %d requests, want %d", what, gid, b.ID, got, want(b.ID))
				}
			}
		}
	}
	count("1 MiB write", func() error { _, err := s.WriteAt(buf, 0); return err },
		func(raid.DiskID) int64 { return 1 })
	got := make([]byte, len(buf))
	count("1 MiB read", func() error { _, err := s.ReadAt(got, 0); return err },
		func(id raid.DiskID) int64 {
			if id.Role == raid.RoleData {
				return 1
			}
			return 0
		})
	if !bytes.Equal(got, buf) {
		t.Fatal("1 MiB read returned the wrong bytes")
	}
}

func TestShardEOFContract(t *testing.T) {
	s, _ := newTestShard(t, 2, 32, []int{2, 2}, Config{})
	shardPayload(t, s, 2)
	size := s.Size()
	// At or past the end: (0, io.EOF).
	if n, err := s.ReadAt(make([]byte, 8), size); n != 0 || err != io.EOF {
		t.Fatalf("read at end: n=%d err=%v", n, err)
	}
	if n, err := s.ReadAt(make([]byte, 8), size+100); n != 0 || err != io.EOF {
		t.Fatalf("read past end: n=%d err=%v", n, err)
	}
	// Clamped read: (n, io.EOF) with n < len(p).
	p := make([]byte, 64)
	if n, err := s.ReadAt(p, size-10); n != 10 || err != io.EOF {
		t.Fatalf("clamped read: n=%d err=%v", n, err)
	}
	// Write past the end is an error, not a short write.
	if _, err := s.WriteAt(make([]byte, 64), size-10); err == nil {
		t.Fatal("write past end succeeded")
	}
	if _, err := s.ReadAt(p, -1); err == nil {
		t.Fatal("negative offset read succeeded")
	}
}

func TestShardGeometryMismatch(t *testing.T) {
	mk := func(n int, elementSize int64) *cluster.Volume {
		arch := raid.NewMirror(layout.NewShifted(n))
		b := startGroupBackends(t, arch, elementSize, 2)
		v, err := cluster.New(arch, b.addrs, fastClusterConfig(elementSize, 2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(v.Close)
		return v
	}
	if _, err := New([]*cluster.Volume{mk(2, 32), mk(3, 32)}, Config{}); err == nil {
		t.Fatal("mixed n accepted")
	}
	if _, err := New([]*cluster.Volume{mk(2, 32), mk(2, 64)}, Config{}); err == nil {
		t.Fatal("mixed element size accepted")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty group list accepted")
	}
}

// TestShardRebuildLifecycle drives the full placement state machine
// through the sharded surface and checks rebuild traffic stays confined
// to the affected group.
func TestShardRebuildLifecycle(t *testing.T) {
	s, backends := newTestShard(t, 3, 64, []int{3, 3}, Config{})
	payload := shardPayload(t, s, 3)

	const gid = 1
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := s.Fail(gid, lost); err != nil {
		t.Fatal(err)
	}
	d, ok := s.Placement().Device(gid, lost)
	if !ok || d.State != DeviceDead || d.IncompleteStripes != 3 {
		t.Fatalf("after Fail: %+v", d)
	}
	if err := s.ReplaceBackend(gid, lost, backends[gid].replace(lost)); err != nil {
		t.Fatal(err)
	}
	if d, _ = s.Placement().Device(gid, lost); d.State != DeviceReplacementPending || !d.Replacement {
		t.Fatalf("after ReplaceBackend: %+v", d)
	}
	if err := s.RebuildDisk(context.Background(), gid, lost); err != nil {
		t.Fatal(err)
	}
	if d, _ = s.Placement().Device(gid, lost); d.State != DeviceOnline || d.Replacement || d.IncompleteStripes != 0 {
		t.Fatalf("after RebuildDisk: %+v", d)
	}

	st := s.Stats()
	if st.Rebuilds != 1 || st.RebuildErrors != 0 {
		t.Fatalf("rebuild counters: %+v", st)
	}
	// Confinement: every rebuild-source element came from group gid.
	for _, g := range st.PerGroup {
		for _, b := range g.Cluster.Backends {
			if g.Group != gid && b.RebuildReadElements != 0 {
				t.Fatalf("group %d backend %s served %d rebuild elements", g.Group, b.Disk, b.RebuildReadElements)
			}
		}
	}

	got := make([]byte, s.Size())
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after rebuild")
	}

	// Scrub across both groups must be clean and cover every replica.
	rep, err := s.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElementsCompared == 0 || len(rep.Skipped) != 0 {
		t.Fatalf("scrub report: %+v", rep)
	}
}

// TestShardScheduler floods two groups with pending devices and lets
// RebuildPending drain them with bounded concurrency.
func TestShardScheduler(t *testing.T) {
	s, backends := newTestShard(t, 3, 64, []int{2, 2, 2}, Config{MaxConcurrentRebuilds: 1})
	payload := shardPayload(t, s, 4)

	fails := []struct {
		gid  int
		disk raid.DiskID
	}{
		{0, raid.DiskID{Role: raid.RoleData, Index: 0}},
		// Two data disks in one group: recoverable together, since every
		// data replica lives on a mirror disk.
		{2, raid.DiskID{Role: raid.RoleData, Index: 2}},
		{2, raid.DiskID{Role: raid.RoleData, Index: 1}},
	}
	for _, f := range fails {
		if err := s.Fail(f.gid, f.disk); err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceBackend(f.gid, f.disk, backends[f.gid].replace(f.disk)); err != nil {
			t.Fatal(err)
		}
	}
	// Group 2 has two incomplete devices: highest pressure, first in the
	// deterministic queue.
	if q := s.Placement().pressure(); q[0].group != 2 || len(q[0].pending) != 2 {
		t.Fatalf("pressure queue head: %+v", q)
	}
	if err := s.RebuildPending(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := s.Placement().Rollup()
	if r.Online != 18 || r.Dead+r.ReplacementPending+r.Rebuilding != 0 {
		t.Fatalf("rollup after scheduler: %+v", r)
	}
	got := make([]byte, s.Size())
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after scheduled rebuilds")
	}
	if st := s.Stats(); st.Rebuilds != 3 {
		t.Fatalf("want 3 rebuilds, got %d", st.Rebuilds)
	}
}

// TestShardRebuildMatchesSingleGroup pins the acceptance criterion that
// RebuildDisk through the sharded surface is byte-identical to the
// single-group path: the same logical bytes rebuilt standalone produce
// the same disk image.
func TestShardRebuildMatchesSingleGroup(t *testing.T) {
	const n, stripes = 3, 3
	const elementSize int64 = 64
	s, sb := newTestShard(t, n, elementSize, []int{stripes, stripes}, Config{})
	payload := shardPayload(t, s, 5)

	// Collect group 1's logical bytes in extent order — the bytes its
	// child volume holds, stripe by stripe.
	const gid = 1
	stripeB := int64(n*n) * elementSize
	var childImage []byte
	for slot, e := range s.ExtentTable() {
		if e.Group == gid {
			childImage = append(childImage, payload[int64(slot)*stripeB:int64(slot+1)*stripeB]...)
		}
	}

	// A standalone control volume seeded with exactly those bytes.
	arch := raid.NewMirror(layout.NewShifted(n))
	cb := startGroupBackends(t, arch, elementSize, stripes)
	control, err := cluster.New(arch, cb.addrs, fastClusterConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(control.Close)
	if _, err := control.WriteAt(childImage, 0); err != nil {
		t.Fatal(err)
	}

	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	// Sharded path.
	if err := s.Fail(gid, lost); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceBackend(gid, lost, sb[gid].replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := s.RebuildDisk(context.Background(), gid, lost); err != nil {
		t.Fatal(err)
	}
	// Single-group control path.
	if err := control.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := control.ReplaceBackend(lost, cb.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := control.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}

	shardDisk := make([]byte, sb[gid].stores[lost].Size())
	if _, err := sb[gid].stores[lost].ReadAt(shardDisk, 0); err != nil {
		t.Fatal(err)
	}
	controlDisk := make([]byte, cb.stores[lost].Size())
	if _, err := cb.stores[lost].ReadAt(controlDisk, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardDisk, controlDisk) {
		t.Fatal("sharded rebuild produced a different disk image than the single-group path")
	}
}

func TestShardAddRemoveGroup(t *testing.T) {
	const n, elementSize = 2, int64(32)
	s, _ := newTestShard(t, n, elementSize, []int{2, 2}, Config{})
	payload := shardPayload(t, s, 6)
	oldSize := s.Size()

	// AddGroup extends capacity at the tail without moving data.
	arch := raid.NewMirror(layout.NewShifted(n))
	nb := startGroupBackends(t, arch, elementSize, 3)
	child, err := cluster.New(arch, nb.addrs, fastClusterConfig(elementSize, 3))
	if err != nil {
		t.Fatal(err)
	}
	gid, err := s.AddGroup(child)
	if err != nil {
		t.Fatal(err)
	}
	if gid != 2 {
		t.Fatalf("new group id %d, want 2", gid)
	}
	stripeB := int64(n*n) * elementSize
	if s.Size() != oldSize+3*stripeB {
		t.Fatalf("size after AddGroup: %d", s.Size())
	}
	tail := make([]byte, 3*stripeB)
	rand.New(rand.NewSource(7)).Read(tail)
	if _, err := s.WriteAt(tail, oldSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, oldSize)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("prefix disturbed by AddGroup")
	}

	// RemoveGroup(0): its surviving extents migrate into stripes freed
	// by the discarded tail; the logical prefix must survive untouched.
	if err := s.RemoveGroup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	newSize := s.Size()
	if newSize != oldSize+3*stripeB-2*stripeB {
		t.Fatalf("size after RemoveGroup: %d", newSize)
	}
	want := append(append([]byte(nil), payload...), tail...)[:newSize]
	got = make([]byte, newSize)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("surviving prefix corrupted by RemoveGroup migration")
	}
	for _, e := range s.ExtentTable() {
		if e.Group == 0 {
			t.Fatalf("extent still references removed group: %+v", e)
		}
	}
	if _, ok := s.GroupVolume(0); ok {
		t.Fatal("removed group still resolvable")
	}
	if st := s.Stats(); st.MigratedExtents == 0 {
		t.Fatal("migration moved no extents")
	}

	// Guard rails.
	if err := s.RemoveGroup(context.Background(), 0); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("double remove: %v", err)
	}
	if err := s.RemoveGroup(context.Background(), gid); err != nil {
		t.Fatal(err)
	}
	last := s.Groups()[0]
	if err := s.RemoveGroup(context.Background(), last); !errors.Is(err, ErrLastGroup) {
		t.Fatalf("last-group remove: %v", err)
	}
}

func TestShardRemoveGroupRefusesDegraded(t *testing.T) {
	s, _ := newTestShard(t, 2, 32, []int{2, 2}, Config{})
	shardPayload(t, s, 8)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := s.Fail(0, lost); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveGroup(context.Background(), 0); !errors.Is(err, ErrGroupDegraded) {
		t.Fatalf("degraded remove: %v", err)
	}
}

// TestShardSyncPlacement: the placement table has nothing to sync — it
// is read from the children, so a failure the shard layer never heard
// about shows the moment it happens.
func TestShardSyncPlacement(t *testing.T) {
	s, backends := newTestShard(t, 3, 64, []int{3, 3}, Config{})
	shardPayload(t, s, 9)
	const gid = 0
	lost := raid.DiskID{Role: raid.RoleMirror, Index: 0}
	// Fail through the *child* directly, as an auto-fail would.
	child, _ := s.GroupVolume(gid)
	if err := child.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Placement().Device(gid, lost); d.State != DeviceDead || d.IncompleteStripes != 3 {
		t.Fatalf("after child-level fail: %+v", d)
	}
	// Replacement-pending holds until the rebuild (the scheduler's queue).
	if err := s.ReplaceBackend(gid, lost, backends[gid].replace(lost)); err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Placement().Device(gid, lost); d.State != DeviceReplacementPending {
		t.Fatalf("after ReplaceBackend: %+v", d)
	}
	if err := s.RebuildPending(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Placement().Device(gid, lost); d.State != DeviceOnline || d.IncompleteStripes != 0 {
		t.Fatalf("after rebuild: %+v", d)
	}
}

func TestShardMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestShard(t, 2, 32, []int{2, 2}, Config{Metrics: reg})
	shardPayload(t, s, 10)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE sm_shard_reads_total counter",
		"sm_shard_writes_total 1",
		"sm_shard_groups 2",
		"sm_shard_extents 4",
		"sm_shard_devices_online 8",
		`sm_cluster_elements_written_total{group="0"}`,
		`sm_cluster_backend_requests_total{disk="data[0]",group="1"}`,
		`sm_cluster_rebuild_watermark_stripes{disk="mirror[1]",group="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestShardStatsJSON(t *testing.T) {
	s, backends := newTestShard(t, 2, 32, []int{2, 2}, Config{})
	shardPayload(t, s, 11)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := s.Fail(1, lost); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceBackend(1, lost, backends[1].replace(lost)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Groups != 2 || len(st.PerGroup) != 2 || st.SizeBytes != s.Size() {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Placement.Rollup.ReplacementPending != 1 || st.Placement.Rollup.Online != 7 {
		t.Fatalf("placement rollup: %+v", st.Placement.Rollup)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Placement.Rollup.ReplacementPending != 1 || len(back.PerGroup) != 2 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
	for _, d := range back.Placement.Devices {
		if d.Disk == lost.String() && d.Group == 1 && d.State != DeviceReplacementPending {
			t.Fatalf("state did not survive JSON: %+v", d)
		}
	}
	h := s.Health()
	if h.Groups != 2 || h.Devices.ReplacementPending != 1 {
		t.Fatalf("health: %+v", h)
	}
}

// TestShardRemoveGroupCancelRetry pins the two halves of RemoveGroup's
// crash-consistency story. First, the discarded tail is fenced the
// moment removal starts — its physical stripes become migration
// destinations, so leaving it addressable would alias migrated data.
// Second, a cancelled migration persists its plan and a retry resumes
// it; re-deriving the plan from the half-migrated extent table used to
// alias two logical slots onto one physical stripe (the migrated slots
// no longer look owned by the leaving group, shifting the cut).
func TestShardRemoveGroupCancelRetry(t *testing.T) {
	const n, elementSize = 2, int64(32)
	s, _ := newTestShard(t, n, elementSize, []int{3, 3, 3}, Config{})
	payload := shardPayload(t, s, 11)
	stripeB := int64(n*n) * elementSize
	oldSize := s.Size()

	// Group 0 owns extents 0, 3, 6 of 9; slots 0 and 3 survive the cut
	// at 6, so two pairs migrate. Cancel after the first.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.migrateHook = func(migrated int) {
		if migrated == 1 {
			cancel()
		}
	}
	err := s.RemoveGroup(ctx, 0)
	s.migrateHook = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled removal: %v", err)
	}

	// The tail is gone and fenced despite the half-finished migration.
	newSize := oldSize - 3*stripeB
	if got := s.Size(); got != newSize {
		t.Fatalf("size after cancelled removal: %d, want %d", got, newSize)
	}
	if _, err := s.ReadAt(make([]byte, stripeB), newSize); !errors.Is(err, io.EOF) {
		t.Fatalf("tail read after fence: %v, want io.EOF", err)
	}
	if _, err := s.WriteAt(make([]byte, stripeB), newSize); err == nil {
		t.Fatal("tail write accepted after fence")
	}

	// The surviving prefix stays byte-identical mid-migration.
	got := make([]byte, newSize)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:newSize]) {
		t.Fatal("surviving prefix corrupted by cancelled migration")
	}

	// Other topology changes are refused until the removal completes.
	arch := raid.NewMirror(layout.NewShifted(n))
	nb := startGroupBackends(t, arch, elementSize, 2)
	child, err := cluster.New(arch, nb.addrs, fastClusterConfig(elementSize, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	if _, err := s.AddGroup(child); !errors.Is(err, ErrMigration) {
		t.Fatalf("AddGroup during pending removal: %v", err)
	}
	if err := s.RemoveGroup(context.Background(), 1); !errors.Is(err, ErrMigration) {
		t.Fatalf("RemoveGroup(other) during pending removal: %v", err)
	}

	// The retry resumes the persisted plan and finishes cleanly.
	if err := s.RemoveGroup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, newSize)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:newSize]) {
		t.Fatal("data corrupted across cancel+retry removal")
	}
	for _, e := range s.ExtentTable() {
		if e.Group == 0 {
			t.Fatalf("extent still references removed group: %+v", e)
		}
	}
	if _, ok := s.GroupVolume(0); ok {
		t.Fatal("removed group still resolvable after retry")
	}
}

// TestShardManagementDuringTopologyChange hammers the management
// surface (stats rollups, placement reads) while groups are being
// removed. The management paths pin child volumes by refcount, so
// RemoveGroup's Close must wait for them to drain — without that, this
// test races a child's Close against in-flight Stats/Disks calls
// (caught under -race, or as use-after-close errors).
func TestShardManagementDuringTopologyChange(t *testing.T) {
	s, _ := newTestShard(t, 2, 32, []int{2, 2, 2}, Config{})
	shardPayload(t, s, 13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Stats()
				s.Placement()
				s.Health()
			}
		}()
	}
	if err := s.RemoveGroup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveGroup(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestShardStateNeedsNoRefresh pins the ways the remembered placement
// table used to be wrong: a refused rebuild must leave a healthy disk
// online, and a failure the shard layer was not told about — through the
// child, by the write path's auto-fail, or a backend its pool gave up on
// — must show in Health and in a metrics scrape with no call made to
// refresh either.
func TestShardStateNeedsNoRefresh(t *testing.T) {
	reg := obs.NewRegistry()
	s, backends := newTestShard(t, 3, 64, []int{3, 3}, Config{Metrics: reg}, func(c *cluster.Config) {
		// A pool's dead verdict lapses when its probe window opens; keep
		// it shut for the length of the test.
		c.ProbeEvery, c.MaxProbe = time.Minute, time.Minute
	})
	payload := shardPayload(t, s, 14)
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	expect := func(step string, dead, pending int) {
		t.Helper()
		// The scrape goes first: it must not depend on Health having run.
		text := scrape()
		for _, line := range []string{
			fmt.Sprintf("sm_shard_devices_online %d\n", 12-dead-pending),
			fmt.Sprintf("sm_shard_devices_dead %d\n", dead),
			fmt.Sprintf("sm_shard_devices_replacement_pending %d\n", pending),
		} {
			if !strings.Contains(text, line) {
				t.Fatalf("%s: scrape lacks %q:\n%s", step, line, text)
			}
		}
		if r := s.Health().Devices; r.Online != 12-dead-pending || r.Dead != dead || r.ReplacementPending != pending {
			t.Fatalf("%s: health %+v, want %d dead and %d pending of 12", step, r, dead, pending)
		}
	}

	if err := s.RebuildDisk(context.Background(), 0, raid.DiskID{Role: raid.RoleData, Index: 0}); err == nil {
		t.Fatal("rebuild of a healthy disk accepted")
	}
	expect("rebuild refused", 0, 0)

	child, _ := s.GroupVolume(0)
	if err := child.Fail(raid.DiskID{Role: raid.RoleData, Index: 1}); err != nil {
		t.Fatal(err)
	}
	expect("child-level fail", 1, 0)

	// A backend that dies under writes is auto-failed by the write path.
	backends[1].kill(raid.DiskID{Role: raid.RoleData, Index: 2})
	if _, err := s.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	expect("auto-fail", 2, 0)

	// A backend that dies under reads is never failed, only given up on
	// by its pool (for as long as the pool's probe window stays shut).
	backends[1].kill(raid.DiskID{Role: raid.RoleData, Index: 0})
	if _, err := s.ReadAt(make([]byte, s.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if text := scrape(); !strings.Contains(text, "sm_shard_devices_dead 3\n") {
		t.Fatalf("unreachable backend: scrape lacks 3 dead devices:\n%s", text)
	}
}
