package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// TestChaosBackendKilledMidRebuild kills a surviving backend while
// RebuildDisk is streaming replicas off it and asserts the rebuild
// completes through failover with byte-identical output. The volume is
// a three-mirror arrangement (fault tolerance two), so every element
// the killed backend was serving has a second replica on yet another
// backend — the pairwise-parallel property of the generalized shifted
// family.
func TestChaosBackendKilledMidRebuild(t *testing.T) {
	const n, stripes = 4, 16
	const elementSize = 256
	arch := raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1))
	cfg := fastConfig(elementSize, stripes)
	cfg.RebuildBatch = 1 // many lock slices so the kill lands mid-run
	// The rebuild of data[0] reads primarily from the first mirror
	// array. Kill one of its backends the moment the first slice has
	// landed on the replacement backend, i.e. genuinely mid-rebuild; the
	// slice's trace event runs inline, so the remaining slices all run
	// against the dead backend (a poller racing a rebuild that takes a
	// few milliseconds could miss it altogether).
	victim := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	var backends *testBackends
	var kill sync.Once
	cfg.Tracer = obs.TracerFunc(func(ev obs.Event) {
		if ev.Op == "rebuild_slice" {
			kill.Do(func() { backends.kill(victim) })
		}
	})
	backends = startBackends(t, arch, elementSize, stripes)
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 42)

	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatalf("rebuild did not survive backend kill: %v", err)
	}

	// Byte-compare the replacement store against the local-rebuild image.
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := backends.stores[lost].ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chaos rebuild image diverges from local rebuild")
	}

	clusterRead := make([]byte, v.Size())
	if _, err := v.ReadAt(clusterRead, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterRead, payload) {
		t.Fatal("reads diverge from the payload after the chaos rebuild")
	}

	h := v.Health()
	if h.Failovers == 0 {
		t.Fatalf("rebuild survived without recorded failovers: %+v", h)
	}
	if h.Rebuilds != 1 {
		t.Fatalf("rebuild not counted: %+v", h)
	}
	assertCopiesEqual(t, v, backends)
}

// TestChaosBackendRecoveryAfterRestart verifies the marked-dead/probe
// state machine end to end: a killed backend is marked dead, served
// around, then picked back up once a server answers on its address
// again.
func TestChaosBackendRecoveryAfterRestart(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 2)
	v, err := New(arch, backends.addrs, fastConfig(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 43)

	victim := raid.DiskID{Role: raid.RoleData, Index: 1}
	addr := backends.addrs[victim]
	store := backends.stores[victim]
	backends.kill(victim)

	// Service continues from replicas; the pool goes dead.
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read during outage mismatch")
	}

	// Restart a server for the same store on the same address. The
	// store still holds its bytes (a reboot, not a disk loss).
	srv, lerr := restartServer(store, addr)
	if lerr != nil {
		t.Skipf("could not rebind %s: %v", addr, lerr)
	}
	t.Cleanup(func() { srv.Close() })

	// After the probe window the pool must recover and serve from the
	// primary again without a single failover.
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := v.Health().Failovers
		if _, err := v.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("read after restart mismatch")
		}
		if v.Health().Failovers == before {
			return // served with no failover: backend is back
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never recovered after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
