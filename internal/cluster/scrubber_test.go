package cluster

import (
	"bytes"
	"context"
	"errors"
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
