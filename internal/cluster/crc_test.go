package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// withCRC gives every server a CRC sidecar sized to the element, the
// server half of WireCRC mode.
func withCRC(elementSize int64) backendOpt {
	return withServerOptions(blockserver.WithCRC(elementSize))
}

func newCRCVolume(t *testing.T, arch *raid.Mirror, elementSize int64, stripes int) (*Volume, *testBackends) {
	t.Helper()
	backends := startBackends(t, arch, elementSize, stripes, withCRC(elementSize))
	cfg := fastConfig(elementSize, stripes)
	cfg.WireCRC = true
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	return v, backends
}

// rot flips one byte of the element at (stripe, disk, row)'s src-th
// location directly in the backing store — silent corruption the
// server never sees happen.
func rot(t *testing.T, v *Volume, b *testBackends, stripe, disk, row, src int) {
	t.Helper()
	loc := v.locations(stripe, disk, row)[src]
	off := v.storeOffset(stripe, loc.row)
	store := b.stores[loc.id]
	one := make([]byte, 1)
	if _, err := store.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := store.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCRCReadFailover: a read whose data copy is rotten is
// detected by the client checksum and served from the replica, with
// the detection counted; when every copy is rotten the read surfaces
// ErrScrubMismatch — corruption, not data loss.
func TestClusterCRCReadFailover(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, b := newCRCVolume(t, arch, 512, 3)
	payload := randomPayload(t, v, 21)
	ctx := context.Background()

	// Rot the data copy of element (stripe 0, disk 0, row 0).
	rot(t, v, b, 0, 0, 0, 0)
	got := make([]byte, 512)
	if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
		t.Fatalf("read with a rotten data copy: %v", err)
	}
	if !bytes.Equal(got, payload[:512]) {
		t.Fatal("failover read did not deliver the clean replica copy")
	}
	st := v.Stats()
	if st.CRCReadErrors == 0 {
		t.Fatal("client-side CRC detection not counted")
	}
	if st.Failovers == 0 {
		t.Fatal("CRC failure did not count as a failover")
	}

	// Rot every remaining copy of the same element: the read must say
	// "inconsistent", not "unrecoverable" — the bytes are all there,
	// they are just all wrong.
	locs := v.locations(0, 0, 0)
	for src := 1; src < len(locs); src++ {
		rot(t, v, b, 0, 0, 0, src)
	}
	_, err := v.ReadAtCtx(ctx, got, 0)
	if !errors.Is(err, ErrScrubMismatch) {
		t.Fatalf("all-copies-rotten read: %v, want ErrScrubMismatch", err)
	}
	if errors.Is(err, ErrDataLoss) {
		t.Fatalf("all-copies-rotten read misreported as data loss: %v", err)
	}
}

// TestClusterPlainReturnsRot pins the contrast case: without WireCRC
// the same corruption sails through as wrong bytes.
func TestClusterPlainReturnsRot(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, b := newTestVolume(t, arch, 512, 3)
	payload := randomPayload(t, v, 22)
	rot(t, v, b, 0, 0, 0, 0)
	got := make([]byte, 512)
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload[:512]) {
		t.Fatal("expected the plain read to return the corrupted bytes")
	}
	if st := v.Stats(); st.CRCReadErrors != 0 {
		t.Fatalf("plain volume counted %d CRC errors", st.CRCReadErrors)
	}
}

// TestScrubChecksumFastPath: a WireCRC scrub verifies by checksum
// (counted in the report), catches rot on a replica, and degrades to
// byte comparison when a backend lacks the feature.
func TestScrubChecksumFastPath(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	ctx := context.Background()

	t.Run("clean", func(t *testing.T) {
		v, _ := newCRCVolume(t, arch, 512, 3)
		randomPayload(t, v, 23)
		rep, err := v.Scrub(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ElementsCompared == 0 || rep.ChecksumCompared != rep.ElementsCompared {
			t.Fatalf("checksum scrub compared %d elements, %d by checksum",
				rep.ElementsCompared, rep.ChecksumCompared)
		}
		if st := v.Stats(); st.Scrub.ChecksumCompared != rep.ChecksumCompared {
			t.Fatalf("stats ChecksumCompared %d, report %d", st.Scrub.ChecksumCompared, rep.ChecksumCompared)
		}
	})

	t.Run("catches-rot", func(t *testing.T) {
		v, b := newCRCVolume(t, arch, 512, 3)
		randomPayload(t, v, 24)
		// Rot a replica copy: OpCrcV recomputes from the store, so the
		// checksum sweep must see the divergence.
		rot(t, v, b, 0, 1, 1, 1)
		if _, err := v.Scrub(ctx); !errors.Is(err, ErrScrubMismatch) {
			t.Fatalf("checksum scrub over rot: %v, want ErrScrubMismatch", err)
		}
	})

	t.Run("falls-back-without-feature", func(t *testing.T) {
		// WireCRC volume over backends that never enabled the feature:
		// the data path degrades to plain opcodes and the scrub falls
		// back to byte comparison.
		backends := startBackends(t, arch, 512, 3)
		cfg := fastConfig(512, 3)
		cfg.WireCRC = true
		v, err := New(arch, backends.addrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(v.Close)
		payload := randomPayload(t, v, 25)
		got := make([]byte, v.Size())
		if _, err := v.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("degraded (plain-opcode) round trip mismatch")
		}
		rep, err := v.Scrub(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChecksumCompared != 0 || rep.ElementsCompared == 0 {
			t.Fatalf("fallback scrub compared %d elements, %d by checksum",
				rep.ElementsCompared, rep.ChecksumCompared)
		}
	})
}

// TestClusterCRCOverFaultinject drives reads through a backend whose
// store silently corrupts every read below the server: the volume
// serves correct data anyway (checksum detection + failover), counting
// each catch.
func TestClusterCRCOverFaultinject(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	const elementSize, stripes = 512, 3
	b := &testBackends{
		t:       t,
		addrs:   map[raid.DiskID]string{},
		servers: map[raid.DiskID]*blockserver.Server{},
		stores:  map[raid.DiskID]*dev.MemStore{},
	}
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	rotten := raid.DiskID{Role: raid.RoleData, Index: 0}
	for _, id := range arch.Disks() {
		mem := dev.NewMemStore(perDisk)
		var store blockserver.Store = mem
		if id == rotten {
			store = faultinject.Wrap(mem, faultinject.Config{CorruptEvery: 1})
		}
		srv := blockserver.NewStoreServer(store, blockserver.WithCRC(elementSize))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b.addrs[id] = addr.String()
		b.servers[id] = srv
		b.stores[id] = mem
	}
	t.Cleanup(b.closeAll)
	cfg := fastConfig(elementSize, stripes)
	cfg.WireCRC = true
	v, err := New(arch, b.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)

	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(26)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("read over a corrupting backend: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupting backend leaked rot past the checksum")
	}
	if st := v.Stats(); st.CRCReadErrors == 0 {
		t.Fatal("no CRC detection counted against the corrupting backend")
	}
}
