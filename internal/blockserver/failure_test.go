package blockserver_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestRemoteFailureManagement: failure management of a device whose
// disks are served stores. A server has no management surface of its
// own, so the client's volume does it all over plain data ops — lose a
// disk's server, keep reading degraded over the wire, report it, rebuild
// onto a fresh server and scrub clean.
func TestRemoteFailureManagement(t *testing.T) {
	const elementSize, stripes = 64, 6
	arch := raid.NewMirrorWithParity(layout.NewShifted(3))
	servers := map[raid.DiskID]*blockserver.Server{}
	serve := func(id raid.DiskID) string {
		srv := blockserver.NewStoreServer(dev.NewMemStore(stripes * 3 * elementSize))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[id] = srv
		return addr.String()
	}
	addrs := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		addrs[id] = serve(id)
	}
	v, err := cluster.New(arch, addrs, cluster.Config{ElementSize: elementSize, Stripes: stripes, RebuildBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(2)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	id := raid.DiskID{Role: raid.RoleData, Index: 1}
	servers[id].Close()
	if err := v.Fail(id); err != nil {
		t.Fatal(err)
	}
	// Degraded reads over the wire.
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote degraded read mismatch")
	}
	if v.Health().DegradedReads == 0 {
		t.Fatal("health did not report degraded reads")
	}
	if failed := failedDisks(v); len(failed) != 1 || failed[0] != id {
		t.Fatalf("failed list %v", failed)
	}
	ctx := context.Background()
	if err := v.ReplaceBackend(id, serve(id)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(ctx, id); err != nil {
		t.Fatal(err)
	}
	rep, err := v.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("scrub skipped %v", rep.Skipped)
	}
	if failed := failedDisks(v); len(failed) != 0 {
		t.Fatalf("still failed after rebuild: %v", failed)
	}
	if _, err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-rebuild read mismatch: %v", err)
	}
}

// failedDisks lists the disks not online, in arch.Disks() order.
func failedDisks(v *cluster.Volume) []raid.DiskID {
	var out []raid.DiskID
	for _, d := range v.Disks() {
		if d.State != cluster.DiskOnline {
			out = append(out, d.ID)
		}
	}
	return out
}
