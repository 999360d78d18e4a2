package cluster

import (
	"bytes"
	"context"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// layoutArch builds the n-disk single-mirror architecture over the
// named registered layout.
func layoutArch(tb testing.TB, name string, n int) *raid.Mirror {
	tb.Helper()
	arr, err := layout.New(name, n)
	if err != nil {
		tb.Fatal(err)
	}
	return raid.NewMirror(arr)
}

// layoutTestVolume builds a volume over the named registered layout at
// n=4.
func layoutTestVolume(t *testing.T, name string, elementSize int64, stripes int) (*Volume, *testBackends) {
	t.Helper()
	arch := layoutArch(t, name, 4)
	backends := startBackends(t, arch, elementSize, stripes)
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatalf("New with layout %q: %v", name, err)
	}
	t.Cleanup(v.Close)
	return v, backends
}

// TestRebuildByteIdenticalAcrossLayouts table-drives the cluster's
// byte-identical rebuild over every registered layout family: fail a
// data disk and a mirror-side disk in turn, rebuild each over the wire,
// and require the full volume readback to match the original payload
// and a subsequent scrub to come back clean. Any future registration is
// covered for free via layout.Names().
func TestRebuildByteIdenticalAcrossLayouts(t *testing.T) {
	const elementSize, stripes = 512, 7
	for _, name := range layout.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, _ := layoutTestVolume(t, name, elementSize, stripes)
			payload := randomPayload(t, v, 97)
			ctx := context.Background()
			for _, lost := range []raid.DiskID{
				{Role: raid.RoleData, Index: 0},
				{Role: raid.RoleMirror, Index: 2},
			} {
				if err := v.Fail(lost); err != nil {
					t.Fatal(err)
				}
				// Degraded read while the disk is out must already be
				// byte-identical.
				got := make([]byte, v.Size())
				if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
					t.Fatalf("degraded read with %v failed: %v", lost, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("degraded read with %v lost diverges from payload", lost)
				}
				if err := v.RebuildDisk(ctx, lost); err != nil {
					t.Fatalf("rebuild %v: %v", lost, err)
				}
				if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("post-rebuild readback of %v diverges from payload", lost)
				}
			}
			if _, err := v.Scrub(ctx); err != nil {
				t.Fatalf("post-rebuild scrub: %v", err)
			}
		})
	}
}

// TestWritesVisibleAcrossLayouts: unaligned read-modify-writes and
// aligned overwrites land on every copy for every registered layout
// (the scrub would catch a replica the fan-out missed).
func TestWritesVisibleAcrossLayouts(t *testing.T) {
	const elementSize, stripes = 512, 7
	for _, name := range layout.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, _ := layoutTestVolume(t, name, elementSize, stripes)
			payload := randomPayload(t, v, 11)
			// An unaligned overwrite spanning an element boundary.
			patch := []byte("layout-bakeoff-patch")
			off := int64(elementSize - 7)
			if _, err := v.WriteAt(patch, off); err != nil {
				t.Fatal(err)
			}
			copy(payload[off:], patch)
			got := make([]byte, v.Size())
			if _, err := v.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("readback diverges after unaligned write")
			}
			if _, err := v.Scrub(context.Background()); err != nil {
				t.Fatalf("scrub after writes: %v", err)
			}
		})
	}
}

// TestDeclusteredWireRebuildSources is the wire-level face of the
// declustered guarantee: with the stripe count a multiple of the
// schedule period, a rebuild's gather reads exactly the same element
// count from every one of the 2n-1 surviving backends.
func TestDeclusteredWireRebuildSources(t *testing.T) {
	const elementSize = 512
	decl, err := layout.NewDeclustered(4)
	if err != nil {
		t.Fatal(err)
	}
	stripes := 2 * decl.Period() // 14
	v, _ := layoutTestVolume(t, "declustered", elementSize, stripes)
	randomPayload(t, v, 5)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	v.ResetRebuildReads()
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	want := int64(stripes) * 4 / 7 // stripes*n elements over 2n-1 survivors
	for _, b := range v.Stats().Backends {
		if b.Disk == lost.String() {
			if b.RebuildReadElements != 0 {
				t.Errorf("lost backend %s served %d rebuild elements", b.Disk, b.RebuildReadElements)
			}
			continue
		}
		if b.RebuildReadElements != want {
			t.Errorf("backend %s served %d rebuild elements, want %d", b.Disk, b.RebuildReadElements, want)
		}
	}
}

// TestLayoutConfigValidation pins where a volume's placement comes
// from: the architecture. A pooled arrangement passed as the
// architecture's own is used natively — its per-stripe schedule over
// all 2n disks, not a classic two-array wrapping of it — and a classic
// arrangement is stripe-invariant over the same disks. (Which names
// exist and at which n they are defined is the registry's business:
// layout/registry_test.go.)
func TestLayoutConfigValidation(t *testing.T) {
	decl, err := layout.NewDeclustered(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arr    layout.Arrangement
		period int
	}{
		{decl, decl.Period()},
		{layout.NewShifted(3), 1},
	} {
		arch := raid.NewMirror(tc.arr)
		backends := startBackends(t, arch, 512, 2)
		v, err := New(arch, backends.addrs, fastConfig(512, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if v.table.period != tc.period || v.table.width != len(arch.Disks()) {
			t.Errorf("%s: placement period %d over %d disks, want %d over %d",
				arch.Name(), v.table.period, v.table.width, tc.period, len(arch.Disks()))
		}
	}
}
