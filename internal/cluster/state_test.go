package cluster

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// diskStatus returns one disk's entry of a Disks snapshot.
func diskStatus(t *testing.T, v *Volume, id raid.DiskID) DiskStatus {
	t.Helper()
	for _, d := range v.Disks() {
		if d.ID == id {
			return d
		}
	}
	t.Fatalf("no disk %v in Disks()", id)
	return DiskStatus{}
}

// TestDisksDerivedState walks one disk through the failure/repair cycle
// and checks, after every step and with no call to refresh anything,
// that Disks reports the state the volume's bits imply.
func TestDisksDerivedState(t *testing.T) {
	const stripes = 6 // RebuildBatch 2: three slices
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, stripes)
	cfg := fastConfig(64, stripes)
	// A pool's dead verdict lapses when its probe window opens; keep it
	// shut for the length of the test.
	cfg.ProbeEvery, cfg.MaxProbe = time.Minute, time.Minute
	// cancelAfterSlice, when set, is called once the next rebuild slice
	// has landed: a rebuild cancelled at a known watermark.
	var cancelAfterSlice context.CancelFunc
	cfg.Tracer = obs.TracerFunc(func(ev obs.Event) {
		if ev.Op == "rebuild_slice" && cancelAfterSlice != nil {
			cancelAfterSlice()
			cancelAfterSlice = nil
		}
	})
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 61)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	expect := func(step string, state DiskState, replacement bool, watermark int64) {
		t.Helper()
		d := diskStatus(t, v, lost)
		if d.State != state || d.Replacement != replacement || d.WatermarkStripes != watermark {
			t.Fatalf("%s: %v replacement=%v watermark=%d, want %v replacement=%v watermark=%d",
				step, d.State, d.Replacement, d.WatermarkStripes, state, replacement, watermark)
		}
	}

	expect("healthy", DiskOnline, false, stripes)
	if err := v.RebuildDisk(context.Background(), lost); err == nil {
		t.Fatal("rebuild of a healthy disk accepted")
	}
	expect("rebuild refused", DiskOnline, false, stripes)

	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	expect("failed", DiskDead, false, 0)
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	expect("replaced", DiskReplacementPending, true, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancelAfterSlice = cancel
	if err := v.RebuildDisk(ctx, lost); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild = %v", err)
	}
	expect("rebuild cancelled", DiskReplacementPending, true, 2)

	// A rebuild onto a backend that is gone fails where it stands.
	backends.kill(lost)
	if err := v.RebuildDisk(context.Background(), lost); err == nil {
		t.Fatal("rebuild onto a dead backend succeeded")
	}
	expect("rebuild failed", DiskReplacementPending, true, 2)

	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	expect("replaced again", DiskReplacementPending, true, 0)
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	expect("rebuilt", DiskOnline, false, stripes)

	// An in-place rebuild attempt is itself what names the replacement:
	// failing leaves the disk pending, not dead.
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	backends.kill(lost)
	if err := v.RebuildDisk(context.Background(), lost); err == nil {
		t.Fatal("in-place rebuild onto a dead backend succeeded")
	}
	expect("in-place rebuild failed", DiskReplacementPending, true, 0)
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}

	// A backend its pool gave up on, with the disk never declared failed,
	// reads dead too — and alive again once it is back.
	other := raid.DiskID{Role: raid.RoleData, Index: 0}
	backends.kill(other)
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if d := diskStatus(t, v, other); d.State != DiskDead || d.Replacement || d.WatermarkStripes != stripes {
		t.Fatalf("unreachable backend: %+v", d)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content diverged across the cycle")
	}
}

// TestDisksRebuildingState parks a rebuild between slices on the QoS
// bucket and reads the disk mid-flight: rebuilding, at the watermark the
// finished slices reached.
func TestDisksRebuildingState(t *testing.T) {
	const stripes = 8
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, stripes)
	cfg := fastConfig(64, stripes)
	cfg.RebuildQoSSLO = 5 * time.Millisecond
	cfg.RebuildQoSMinRate = 4 // stripes/sec
	cfg.RebuildQoSMaxRate = 4 // pinned: each 2-stripe slice costs ~500ms
	cfg.RebuildQoSInterval = 20 * time.Millisecond
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 62)
	lost := raid.DiskID{Role: raid.RoleMirror, Index: 2}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- v.RebuildDisk(ctx, lost) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := diskStatus(t, v, lost)
		if d.State == DiskRebuilding && d.WatermarkStripes > 0 {
			if !d.Replacement || d.WatermarkStripes >= stripes {
				t.Fatalf("mid-rebuild: %+v", d)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw the rebuild in flight: %+v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild = %v", err)
	}
	if d := diskStatus(t, v, lost); d.State != DiskReplacementPending || d.WatermarkStripes == 0 {
		t.Fatalf("after cancel: %+v", d)
	}
}

// TestReplaceBackendRestartsWatermark: what a cancelled rebuild recovered
// lives on the backend it was recovered onto. Swapping that backend for
// another must start the watermark over, or the stripes below it are
// served from — and declared rebuilt on — a store that never got them.
func TestReplaceBackendRestartsWatermark(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 6)
	cfg := fastConfig(64, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Tracer = obs.TracerFunc(func(ev obs.Event) {
		if ev.Op == "rebuild_slice" {
			cancel()
		}
	})
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 63)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(ctx, lost); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild = %v", err)
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
		t.Fatal("readback diverges after rebuilding onto a second replacement")
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		t.Fatalf("scrub after rebuilding onto a second replacement: %v", err)
	}
	assertCopiesEqual(t, v, backends)
}

// TestWatermarkGaugeReadsLiveState: a scrape right after a failure shows
// it, with no Stats call in between to refresh anything.
func TestWatermarkGaugeReadsLiveState(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, 64, 4)
	cfg := fastConfig(64, 4)
	cfg.Metrics = obs.NewRegistry()
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 64)
	scrape := func() string {
		var sb strings.Builder
		if err := cfg.Metrics.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	const series = `sm_cluster_rebuild_watermark_stripes{disk="data[2]"} `
	if text := scrape(); !strings.Contains(text, series+"4\n") {
		t.Fatalf("healthy disk's watermark not at Stripes:\n%s", text)
	}
	if err := v.Fail(raid.DiskID{Role: raid.RoleData, Index: 2}); err != nil {
		t.Fatal(err)
	}
	if text := scrape(); !strings.Contains(text, series+"0\n") {
		t.Fatalf("failed disk's watermark not at 0:\n%s", text)
	}
}

// TestScrubYieldsBetweenBatches: a Scrub in progress must not stop the
// world. sync.RWMutex parks every new reader behind the first queued
// writer, so with a pass-long read lock a Fail arriving mid-pass stalled
// every user read until the pass ended; with the lock taken per batch,
// the read waits out at most the batch in flight.
func TestScrubYieldsBetweenBatches(t *testing.T) {
	const (
		elementSize = 1024
		stripes     = 16 // RebuildBatch 2: eight batches
		rate        = 60e3
	)
	// Each batch gathers 2 stripes × 3 rows × 1 KiB from every backend at
	// 60 kB/s: ~100 ms a batch, ~800 ms a pass. The one backend the probe
	// read is served by is left unthrottled, so the read measures its
	// wait for the lock and not its place in a paced disk's queue.
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, elementSize, stripes, withServerOptions(blockserver.WithReadRate(rate)))
	probed := raid.DiskID{Role: raid.RoleData, Index: 0}
	backends.addrs[probed] = backends.replace(probed)
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 65)

	scrubStart := time.Now()
	scrubbed := make(chan time.Duration, 1)
	go func() {
		v.Scrub(context.Background())
		scrubbed <- time.Since(scrubStart)
	}()
	time.Sleep(30 * time.Millisecond) // inside the first batch
	failed := make(chan error, 1)
	go func() { failed <- v.Fail(raid.DiskID{Role: raid.RoleMirror, Index: 1}) }()
	time.Sleep(10 * time.Millisecond) // let the Fail queue on the lock
	readStart := time.Now()
	buf := make([]byte, 512)
	if _, err := v.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	read := time.Since(readStart)
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	pass := <-scrubbed
	if batch := pass / (stripes / 2); read >= batch {
		t.Fatalf("read issued mid-scrub with a Fail queued took %v; one batch is %v, the pass %v", read, batch, pass)
	}
}

// TestDrainSet pins the write drain's striping: stripes fall in ranges
// of RebuildBatch stripes, range r in bucket r mod drainBuckets, so a
// rebuild slice's window — at most RebuildBatch stripes, aligned or not
// — takes at most two buckets, and a write takes the buckets of every
// stripe it writes.
func TestDrainSet(t *testing.T) {
	const n, es, batch = 2, 16, 4
	v := &Volume{n: n, elementSize: es, cfg: Config{RebuildBatch: batch}}
	S := int64(n * n * es)
	for _, tc := range []struct {
		name   string
		s0, s1 int
		want   drainSet
	}{
		{"an aligned window", 4, 8, 1 << 1},
		{"an unaligned window", 6, 10, 1<<1 | 1<<2},
		{"one stripe", 31, 32, 1 << 7},
		{"across the wrap", 30, 34, 1<<7 | 1<<0},
		{"ranges past the buckets wrap", 33, 34, 1 << 0},
		{"as many ranges as buckets", 0, 32, allDrains},
		{"more", 3, 40, allDrains},
	} {
		if got := v.drainSet(tc.s0, tc.s1); got != tc.want {
			t.Errorf("%s: stripes [%d, %d) take %08b, want %08b", tc.name, tc.s0, tc.s1, got, tc.want)
		}
	}
	pieces := []Piece{
		{Buf: make([]byte, 1), Off: 3*S + S - 1}, // the last byte of stripe 3
		{Buf: make([]byte, S+2), Off: 8*S - 1},   // stripes 7 to 9
		{Buf: nil, Off: 31 * S},                  // empty: no stripe
	}
	if got, want := v.piecesDrains(pieces), drainSet(1<<0|1<<1|1<<2); got != want {
		t.Errorf("pieces take %08b, want %08b", got, want)
	}
}
