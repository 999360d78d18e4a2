package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// settled polls cond for up to two seconds. A server folds a request
// into its metrics after it has answered it, so its counters can trail
// the client call's return by a scheduling slice; tests wait for the
// count they expect and then assert on everything else.
func settled(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// frameCounts sums, across all backends, the OpWrite and OpWriteV
// frames the servers actually handled.
func frameCounts(metrics map[raid.DiskID]*blockserver.Metrics) (writes, writevs int64) {
	for _, m := range metrics {
		s := m.Snapshot()
		writes += s.Ops["write"].Ops
		writevs += s.Ops["writev"].Ops
	}
	return writes, writevs
}

// TestFullStripeWriteFrameCount is the issue's acceptance bar made
// deterministic: a full-stripe write at n=5 must cost at most one wire
// frame per replica backend (2n frames for 2n² element copies), where
// a frame per copy would be 2n².
func TestFullStripeWriteFrameCount(t *testing.T) {
	const n, stripes, elementSize = 5, 2, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	stripeBytes := make([]byte, int64(n)*int64(n)*elementSize)
	for i := range stripeBytes {
		stripeBytes[i] = byte(i)
	}
	copies := int64(2 * n * n) // data element + one mirror replica each

	t.Run("batched", func(t *testing.T) {
		backends := startBackends(t, arch, elementSize, stripes, withMetrics())
		metrics := backends.metrics
		v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(v.Close)
		if _, err := v.WriteAt(stripeBytes, 0); err != nil {
			t.Fatal(err)
		}
		st := v.Stats()
		settled(func() bool { _, writevs := frameCounts(metrics); return writevs >= st.WriteBatches })
		writes, writevs := frameCounts(metrics)
		if writes != 0 {
			t.Fatalf("batched write path issued %d bare OpWrite frames", writes)
		}
		if writevs > int64(2*n) {
			t.Fatalf("full-stripe write cost %d writev frames, want <= %d", writevs, 2*n)
		}
		if st.WriteBatches != writevs {
			t.Fatalf("volume counted %d batches, servers saw %d", st.WriteBatches, writevs)
		}
		if st.WriteBatchElements != copies {
			t.Fatalf("batches carried %d element copies, want %d", st.WriteBatchElements, copies)
		}
		// Every backend took its whole share in one frame: each of the 2n
		// disks holds n element copies of the stripe.
		for id, m := range metrics {
			s := m.Snapshot()
			if got := s.Ops["writev"].Ops; got != 1 {
				t.Fatalf("backend %v handled %d writev frames, want 1", id, got)
			}
		}
	})
}

// TestSubElementWriteWireCost pins what a write that tears elements
// costs on the wire, from the servers' own request and byte counters.
// A plain mirror volume issues no backend read at all and ships exactly
// the written bytes to each copy (P3: a write is one parallel access).
// A WireCRC volume still pre-reads the torn elements and writes them
// back whole, so that every wire range is exactly one element — one
// sidecar block on the server.
func TestSubElementWriteWireCost(t *testing.T) {
	const n, stripes, elementSize = 4, 2, 1024
	arch := raid.NewMirror(layout.NewShifted(n))
	type totals struct{ reads, bytesIn, bytesOut int64 }
	sum := func(metrics map[raid.DiskID]*blockserver.Metrics) totals {
		var tot totals
		for _, m := range metrics {
			s := m.Snapshot()
			tot.reads += s.Ops["read"].Ops + s.Ops["readv"].Ops + s.Ops["readvc"].Ops
			tot.bytesIn += s.BytesIn
			tot.bytesOut += s.BytesOut
		}
		return tot
	}
	// Two writes: a quarter of an element, inside it; and the tail of one
	// element plus the head of the next. Three torn elements in all.
	writes := []struct {
		off int64
		n   int
	}{{5*elementSize + 256, 256}, {9*elementSize + 700, 600}}
	const tornElements, written = 3, 256 + 600
	for _, crc := range []bool{false, true} {
		name := map[bool]string{false: "plain", true: "crc"}[crc]
		t.Run(name, func(t *testing.T) {
			opts := []backendOpt{withMetrics()}
			if crc {
				opts = append(opts, withCRC(elementSize))
			}
			backends := startBackends(t, arch, elementSize, stripes, opts...)
			metrics := backends.metrics
			cfg := fastConfig(elementSize, stripes)
			cfg.WireCRC = crc
			v, err := New(arch, backends.addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(v.Close)
			payload := randomPayload(t, v, 53)
			settled(func() bool { return sum(metrics).bytesIn >= 2*v.Size() }) // the fill, on both copies
			before := sum(metrics)
			for _, w := range writes {
				patch := bytes.Repeat([]byte{0xC3}, w.n)
				if _, err := v.WriteAt(patch, w.off); err != nil {
					t.Fatal(err)
				}
				copy(payload[w.off:], patch)
			}
			// Each write reaches two copies (the last request to land is
			// a write), so the byte count says when the servers are done.
			wantIn := int64(2 * written)
			if crc {
				wantIn = 2 * tornElements * elementSize
			}
			settled(func() bool { return sum(metrics).bytesIn-before.bytesIn >= wantIn })
			after := sum(metrics)
			reads, in, out := after.reads-before.reads, after.bytesIn-before.bytesIn, after.bytesOut-before.bytesOut
			if crc {
				if reads == 0 || out != tornElements*elementSize {
					t.Fatalf("WireCRC pre-read: %d read requests, %d bytes; want the %d torn elements", reads, out, tornElements)
				}
				if in != wantIn {
					t.Fatalf("WireCRC shipped %d bytes, want %d: every range one whole element per copy", in, wantIn)
				}
			} else {
				if reads != 0 || out != 0 {
					t.Fatalf("sub-element writes issued %d backend reads (%d bytes); a mirror write needs none", reads, out)
				}
				if in != wantIn {
					t.Fatalf("sub-element writes shipped %d bytes, want %d: the written range per copy", in, wantIn)
				}
			}
			got := make([]byte, v.Size())
			if _, err := v.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("read-back diverges after sub-element writes")
			}
			rep, err := v.Scrub(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if crc && rep.ChecksumCompared != rep.ElementsCompared {
				t.Fatalf("scrub fell off the checksum path: %+v", rep)
			}
		})
	}
}

// TestRebuildWriteBackBatched pins the rebuild's wire cost: each
// recovered slice lands on the replacement backend as one coalesced
// OpWriteV frame (the slice's elements are consecutive subslices of one
// buffer bound for consecutive store rows), never as per-element
// OpWrite round trips.
func TestRebuildWriteBackBatched(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, elementSize, stripes)
	cfg := fastConfig(elementSize, stripes)
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 41)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	// Replacement backend with its own metrics: only rebuild write-back
	// traffic lands there.
	store := dev.NewMemStore(v.DiskSize())
	m := blockserver.NewMetrics()
	srv := blockserver.NewStoreServer(store, blockserver.WithMetrics(m))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := v.ReplaceBackend(lost, addr.String()); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	slices := (stripes + cfg.RebuildBatch - 1) / cfg.RebuildBatch
	settled(func() bool { return m.Snapshot().Ops["writev"].Ops >= int64(slices) })
	s := m.Snapshot()
	if got := s.Ops["write"].Ops; got != 0 {
		t.Fatalf("rebuild write-back issued %d bare OpWrite frames", got)
	}
	if got := s.Ops["writev"].Ops; got != int64(slices) {
		t.Fatalf("rebuild write-back used %d writev frames, want %d (one per slice)", got, slices)
	}
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := store.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batched rebuild write-back diverges from the local rebuild image")
	}
}

// TestConcurrentWriters documents the write path's concurrency contract
// (see DESIGN.md §11): writers run under the shared lock and every
// range lands on each copy as exactly the bytes written, so disjoint
// concurrent writes are safe and byte-exact wherever their boundaries
// fall — here mid-element, so neighbouring writers share the element
// they meet in — while overlapping writes race per copy like on a raw
// block device, and callers that overlap must serialize themselves. Run
// under -race, this also proves the fan-out itself is data-race-free.
func TestConcurrentWriters(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	v, _ := newTestVolume(t, arch, elementSize, stripes)
	payload := make([]byte, v.Size())
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// Split the volume into chunks that start and end off the element
	// grid, one writer each, and land every chunk in two pieces that
	// meet off the grid too: the concurrent paths include the batched
	// fan-out and sub-element writes into elements two writers share.
	const writers = 8
	chunk := v.Size() / writers
	bound := func(w int) int64 {
		switch w {
		case 0:
			return 0
		case writers:
			return v.Size()
		}
		return int64(w)*chunk - chunk%elementSize + 23
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		lo, hi := bound(w), bound(w+1)
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			split := lo + (hi-lo)/2 + 17
			if _, err := v.WriteAt(payload[lo:split], lo); err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = v.WriteAt(payload[split:hi], split)
		}(w, lo, hi)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disjoint concurrent writes diverged")
	}
	rep, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("scrub after concurrent writes skipped %v", rep.Skipped)
	}
}

// TestSubElementWritersKeepEachOthersBytes is the regression test for
// the lost update a read-modify-write under the shared lock caused: N
// writers each rewrite their own slice of ONE element, over and over
// with changing bytes. Every write ships only its own range (or, under
// WireCRC, patches the element under rmwMu), so when they are done
// every copy of the element must hold every writer's last slice — a
// writer that wrote the whole element back from a stale pre-read would
// have reverted a neighbour's.
func TestSubElementWritersKeepEachOthersBytes(t *testing.T) {
	const n, stripes, elementSize = 3, 2, 1024
	const writers, rounds = 8, 60
	const slice = elementSize / writers
	const stripe, disk, row = 1, 2, 1
	off := ((stripe * n * n) + row*n + disk) * int64(elementSize)
	for _, mode := range []struct {
		name string
		open func(*testing.T, *raid.Mirror, int64, int) (*Volume, *testBackends)
	}{
		{"plain", func(t *testing.T, a *raid.Mirror, es int64, s int) (*Volume, *testBackends) {
			return newTestVolume(t, a, es, s)
		}},
		{"crc", newCRCVolume},
	} {
		t.Run(mode.name, func(t *testing.T) {
			arch := raid.NewMirror(layout.NewShifted(n))
			v, backends := mode.open(t, arch, elementSize, stripes)
			randomPayload(t, v, 47)
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
			got := make([]byte, elementSize)
			for _, loc := range v.locations(stripe, disk, row) {
				if _, err := backends.stores[loc.id].ReadAt(got, v.storeOffset(stripe, loc.row)); err != nil {
					t.Fatal(err)
				}
				for w := 0; w < writers; w++ {
					if !bytes.Equal(got[w*slice:(w+1)*slice], want[w*slice:(w+1)*slice]) {
						t.Fatalf("copy on %v lost writer %d's last slice", loc.id, w)
					}
				}
			}
			if _, err := v.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("read-back of the shared element diverges from the writers' last slices")
			}
			rep, err := v.Scrub(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Skipped) != 0 {
				t.Fatalf("scrub skipped %v", rep.Skipped)
			}
		})
	}
}

// TestBackendKilledMidBatchRollsWatermarkToBatchLowStripe kills a
// backend so a multi-stripe OpWriteV batch dies on the wire as a whole:
// the server may have applied any prefix, so the rebuild watermark must
// retreat to the LOWEST stripe carried by the batch — rolling back only
// to the last acked frame would leave rebuilt-but-stale stripes in
// service. The restarted rebuild then converges byte-identically.
func TestBackendKilledMidBatchRollsWatermarkToBatchLowStripe(t *testing.T) {
	const n, stripes, elementSize = 3, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	v, backends := newTestVolume(t, arch, elementSize, stripes)
	payload := randomPayload(t, v, 43)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	// Stage the mid-rebuild state directly (the backend's content is
	// correct, the watermark covers every stripe, the disk is not yet
	// back in service), as TestFailedWriteBelowWatermarkRollsBack does.
	v.updateSlot(slotOf(v, lost), func(s *slotState) error {
		s.failed, s.progress = true, stripes
		return nil
	})
	addr := backends.addrs[lost]
	store := backends.stores[lost]
	backends.kill(lost)
	// One write spanning stripes 1..2: the lost backend's share is a
	// single coalesced batch carrying both stripes.
	stripeSize := int64(n) * int64(n) * elementSize
	off := stripeSize
	patch := bytes.Repeat([]byte{0xAB}, int(2*stripeSize))
	if _, err := v.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(payload[off:], patch)
	at := v.state.Load().slots[slotOf(v, lost)]
	progress, stillFailed := at.progress, at.failed
	if !stillFailed {
		t.Fatal("disk no longer marked failed after the dead-batch write")
	}
	if progress != 1 {
		t.Fatalf("watermark = %d, want 1 (lowest stripe in the dead batch)", progress)
	}
	// Both missed stripes are served from replicas, not the stale copy.
	check := make([]byte, 2*stripeSize)
	if _, err := v.ReadAt(check, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, patch) {
		t.Fatal("read served a stale below-watermark element")
	}
	// The backend reboots with its stale disk; the rebuild restarts from
	// the rolled-back watermark and re-recovers both missed stripes.
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
		t.Fatal("rebuild left a missed stripe stale on the replacement backend")
	}
	full := make([]byte, v.Size())
	if _, err := v.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("post-rebuild read diverges from payload")
	}
}
