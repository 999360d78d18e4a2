package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestScrubOnlineMatchesScrub: on a healthy, idle volume the online
// pass is Scrub with different locking — same coverage, same verdict.
func TestScrubOnlineMatchesScrub(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	v, _ := newTestVolume(t, arch, 128, 8)
	randomPayload(t, v, 31)
	full, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	online, err := v.ScrubOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if online.ElementsCompared != full.ElementsCompared {
		t.Fatalf("online pass compared %d elements, Scrub compared %d",
			online.ElementsCompared, full.ElementsCompared)
	}
	if len(online.Skipped) != 0 {
		t.Fatalf("healthy volume skipped %v", online.Skipped)
	}
}

// TestScrubOnlineDetectsCorruption: the batch helpers carry the
// mismatch verdict through the online path too.
func TestScrubOnlineDetectsCorruption(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, backends := newTestVolume(t, arch, 64, 4)
	randomPayload(t, v, 32)
	// Flip one byte on a mirror backend behind the volume's back.
	id := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	if _, err := backends.stores[id].WriteAt([]byte{0xff}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ScrubOnline(context.Background()); !errors.Is(err, ErrScrubMismatch) {
		t.Fatalf("online scrub of corrupted replica = %v, want ErrScrubMismatch", err)
	}
}

// TestScrubOnlineCircularFromCursor: a pass starting mid-volume walks
// every stripe exactly once (wrapping) and parks the cursor back where
// it started — the resumable-sweep contract.
func TestScrubOnlineCircularFromCursor(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 8) // RebuildBatch 2 → 4 batches
	randomPayload(t, v, 33)
	full, err := v.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v.scrubPos.Store(4) // as if a prior pass was cancelled halfway
	online, err := v.ScrubOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if online.ElementsCompared != full.ElementsCompared {
		t.Fatalf("mid-cursor pass compared %d elements, want full coverage %d",
			online.ElementsCompared, full.ElementsCompared)
	}
	pos := int(v.scrubPos.Load())
	if pos != 4 {
		t.Fatalf("cursor after a full circuit = %d, want back at 4", pos)
	}
}

// TestScrubOnlineCancelKeepsCursor: cancelling a throttled pass returns
// the context error with the cursor holding the progress made, so the
// next call resumes instead of restarting.
func TestScrubOnlineCancelKeepsCursor(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 8)
	cfg := fastConfig(64, 8)
	cfg.RebuildQoSSLO = 5 * time.Millisecond
	cfg.RebuildQoSMinRate = 4 // stripes/sec
	cfg.RebuildQoSMaxRate = 4 // pinned: each 2-stripe batch costs ~500ms
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := make([]byte, v.Size())
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.ScrubOnline(ctx)
		done <- err
	}()
	// Let at least one batch land, then cancel mid-pass.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pos := int(v.scrubPos.Load())
		if pos > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch completed within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled pass = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pass did not return")
	}
	pos := int(v.scrubPos.Load())
	if pos == 0 {
		t.Fatal("cursor lost the cancelled pass's progress")
	}
	// The next pass — unthrottled context, same cursor — finishes.
	if _, err := v.ScrubOnline(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestScrubOnlineDegradedOnFailedDisk mirrors Scrub's verdict: a failed
// disk is skipped and surfaces as ErrDegraded with a valid report.
func TestScrubOnlineDegradedOnFailedDisk(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 4)
	randomPayload(t, v, 34)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	report, err := v.ScrubOnline(context.Background())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("online scrub with a failed disk = %v, want ErrDegraded", err)
	}
	if len(report.Skipped) != 1 || report.Skipped[0] != lost {
		t.Fatalf("skipped = %v, want [%v]", report.Skipped, lost)
	}
	if report.ElementsCompared == 0 {
		t.Fatal("degraded pass compared nothing")
	}
}

// TestRebuildDiskWithQoSCompletes: an idle volume with the controller
// enabled rebuilds correctly and promptly (no user traffic → quiet
// windows ramp the slow-start rate to the cap), and the stats snapshot
// reports the controller.
func TestRebuildDiskWithQoSCompletes(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(4))
	backends := startBackends(t, arch, 128, 6)
	cfg := fastConfig(128, 6)
	cfg.RebuildQoSSLO = 10 * time.Millisecond
	cfg.RebuildQoSMinRate = 2
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 35)
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
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild content diverges under QoS")
	}
	st := v.Stats()
	if !st.QoS.Enabled {
		t.Fatal("stats do not report the QoS controller")
	}
	if st.QoS.SLO != 0.01 {
		t.Fatalf("stats SLO = %v, want 0.01s", st.QoS.SLO)
	}
	if st.QoS.RateStripesPerSec <= 0 {
		t.Fatalf("stats rate = %v, want positive", st.QoS.RateStripesPerSec)
	}
}

// TestRebuildDiskQoSFloorStillFinishes pins the forward-progress
// guarantee end to end: even pinned at a crawling floor rate the
// rebuild completes, and the wait accounting shows it was throttled.
func TestRebuildDiskQoSFloorStillFinishes(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 4)
	cfg := fastConfig(64, 4)
	cfg.RebuildQoSSLO = 5 * time.Millisecond
	cfg.RebuildQoSMinRate = 8 // stripes/sec
	cfg.RebuildQoSMaxRate = 8 // pinned: 4 stripes ≈ 500ms of tokens
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 36)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild content diverges at the floor rate")
	}
	if v.Stats().QoS.WaitSeconds <= 0 {
		t.Fatal("pinned-rate rebuild recorded no token waits")
	}
}

// TestScrubUnderWritersIsClean: a scrub batch is a snapshot of its
// stripes. Two writers rewrite disjoint halves of the volume — so no
// copy can diverge for real (overlapping writers may; see
// TestConcurrentWriters) — while Scrub and then ScrubOnline loop for
// about a second each: no pass may report ErrScrubMismatch, and once the
// writers stop a quiescent scrub is clean and every copy equals every
// other. The rot leg flips a byte of one replica, in a stripe no writer
// touches, while the writers run: the fence must not hide real rot, so
// both passes must name that stripe.
func TestScrubUnderWritersIsClean(t *testing.T) {
	three := raid.NewThreeMirror(layout.NewGeneralShifted(4, 1, 1), layout.NewGeneralShifted(4, 2, 1))
	for _, tc := range []struct {
		name string
		arch *raid.Mirror
		crc  bool
	}{
		{"mirror", raid.NewMirror(layout.NewShifted(4)), false},
		{"three-mirror", three, false},
		{"parity", raid.NewMirrorWithParity(layout.NewShifted(4)), false},
		{"mirror/crc", raid.NewMirror(layout.NewShifted(4)), true},
	} {
		t.Run(tc.name+"/clean", func(t *testing.T) { scrubUnderWriters(t, tc.arch, tc.crc, false) })
		t.Run(tc.name+"/rot", func(t *testing.T) { scrubUnderWriters(t, tc.arch, tc.crc, true) })
	}
}

func scrubUnderWriters(t *testing.T, arch *raid.Mirror, crc, rot bool) {
	const elementSize, stripes = 1024, 16
	opts := []backendOpt{withOrderedStores()}
	if crc {
		opts = append(opts, withCRC(elementSize))
	}
	backends := startBackends(t, arch, elementSize, stripes, opts...)
	cfg := fastConfig(elementSize, stripes)
	cfg.WireCRC = crc
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 81)

	// Writer w rewrites ranges of one to three elements' worth, aligned or
	// not, inside its half of stripes [0, 14); the last two stripes are
	// left alone for the rot leg.
	half := int64(stripes-2) / 2 * v.stripeBytes()
	var stop atomic.Bool
	var writes [2]atomic.Int64
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, 3*elementSize)
			for !stop.Load() {
				n := 1 + rng.Intn(len(buf))
				off := int64(w)*half + rng.Int63n(half-int64(n)+1)
				rng.Read(buf[:n])
				if _, err := v.WriteAt(buf[:n], off); err != nil {
					t.Errorf("writer %d at %d: %v", w, off, err)
					return
				}
				writes[w].Add(1)
			}
		}()
	}
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	ctx := context.Background()
	passes := []struct {
		name string
		run  func(context.Context) (ScrubReport, error)
	}{{"Scrub", v.Scrub}, {"ScrubOnline", v.ScrubOnline}}

	if rot {
		time.Sleep(50 * time.Millisecond) // writers in full swing
		stripe := stripes - 1
		loc := v.locations(stripe, 0, 0)[1]
		b := make([]byte, 1)
		at := v.storeOffset(stripe, loc.row) + 7
		if _, err := backends.view(loc.id).ReadAt(b, at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := backends.view(loc.id).WriteAt(b, at); err != nil {
			t.Fatal(err)
		}
		for _, p := range passes {
			_, err := p.run(ctx)
			if !errors.Is(err, ErrScrubMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("stripe %d ", stripe)) {
				t.Errorf("%s over a rotten replica in stripe %d: %v", p.name, stripe, err)
			}
		}
		return
	}

	var total, mismatched int
	var first error
	for _, p := range passes {
		for start := time.Now(); time.Since(start) < time.Second && !t.Failed(); total++ {
			_, err := p.run(ctx)
			switch {
			case errors.Is(err, ErrScrubMismatch):
				if mismatched++; first == nil {
					first = fmt.Errorf("%s: %w", p.name, err)
				}
			case err != nil:
				t.Fatalf("%s: %v", p.name, err)
			}
		}
	}
	halt()
	t.Logf("%d passes beside %d + %d writes, %d reported a mismatch", total, writes[0].Load(), writes[1].Load(), mismatched)
	if writes[0].Load() == 0 || writes[1].Load() == 0 {
		t.Fatal("a writer never got a write in")
	}
	if mismatched > 0 {
		t.Fatalf("%d of %d passes reported a mismatch beside disjoint writers; the first: %v", mismatched, total, first)
	}
	if _, err := v.Scrub(ctx); err != nil {
		t.Fatalf("quiescent scrub: %v", err)
	}
	assertCopiesEqual(t, v, backends)
}
