package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// hedgedConfig is fastConfig with hedging pinned deterministic: the
// huge MinSamples keeps the adaptive delay at HedgeMaxDelay for the
// whole test, far below any injected stall.
func hedgedConfig(elementSize int64, stripes int) Config {
	cfg := fastConfig(elementSize, stripes)
	cfg.HedgeEnabled = true
	cfg.HedgePercentile = 0.9
	cfg.HedgeMinDelay = time.Millisecond
	cfg.HedgeMaxDelay = 5 * time.Millisecond
	cfg.HedgeMinSamples = 1 << 30
	return cfg
}

// TestHedgedReadByteIdentical: with one data backend stalling on every
// read, hedged reads must return the exact written payload and must
// have won at least one race against the straggler.
func TestHedgedReadByteIdentical(t *testing.T) {
	const n, stripes, elementSize = 4, 4, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	straggler := raid.DiskID{Role: raid.RoleData, Index: 0}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(map[raid.DiskID]faultinject.Config{
		straggler: {Seed: 1, StallEvery: 1, StallFor: 60 * time.Millisecond},
	}))
	v, err := New(arch, backends.addrs, hedgedConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 21) // writes are not stalled

	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("hedged full read diverges from payload")
	}
	// Seeded single-element reads: every one crossing the straggler must
	// come back from a replica, byte-identical.
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, elementSize)
	for i := 0; i < 20; i++ {
		off := int64(rng.Intn(stripes*n*n)) * elementSize
		if _, err := v.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+int64(elementSize)]) {
			t.Fatalf("hedged element read at %d diverges", off)
		}
	}
	hs := v.Stats().Hedge
	if hs.Attempts == 0 || hs.Wins == 0 {
		t.Fatalf("no hedge wins against a permanent straggler: %+v", hs)
	}
	if hs.Cancels == 0 {
		t.Fatalf("hedge wins without cancelling the loser: %+v", hs)
	}
}

// TestHedgedReadNoGoroutineLeak: every hedge race spawns a primary and
// a backup goroutine; both must be joined before the read returns, so
// sustained hedging must not grow the goroutine count.
func TestHedgedReadNoGoroutineLeak(t *testing.T) {
	const n, stripes, elementSize = 3, 2, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	straggler := raid.DiskID{Role: raid.RoleData, Index: 1}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(map[raid.DiskID]faultinject.Config{
		straggler: {Seed: 2, StallEvery: 1, StallFor: 20 * time.Millisecond},
	}))
	before := runtime.NumGoroutine()
	v, err := New(arch, backends.addrs, hedgedConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	payload := randomPayload(t, v, 23)
	got := make([]byte, v.Size())
	for i := 0; i < 15; i++ {
		if _, err := v.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("hedged read diverges mid-leak-check")
		}
	}
	if hs := v.Stats().Hedge; hs.Attempts == 0 {
		t.Fatalf("straggler never triggered a hedge: %+v", hs)
	}
	v.Close()
	// Pool and server goroutines wind down asynchronously after Close;
	// retry before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if cur := runtime.NumGoroutine(); cur <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before hedging, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHedgeDisabledWhenDegraded: once a disk is down to a single
// surviving copy, there is nothing to race — reads of its elements
// must not record hedge attempts even when that surviving copy stalls.
func TestHedgeDisabledWhenDegraded(t *testing.T) {
	const n, stripes, elementSize = 3, 3, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	// Every mirror backend stalls: after data[0] fails, its elements are
	// served by slow single copies — prime hedge bait, if it were legal.
	inject := map[raid.DiskID]faultinject.Config{}
	for _, id := range arch.Disks() {
		if id.Role == raid.RoleMirror {
			inject[id] = faultinject.Config{Seed: 3, StallEvery: 1, StallFor: 20 * time.Millisecond}
		}
	}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(inject))
	v, err := New(arch, backends.addrs, hedgedConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 24)
	if err := v.Fail(raid.DiskID{Role: raid.RoleData, Index: 0}); err != nil {
		t.Fatal(err)
	}
	// Read only data[0]'s elements: each is down to one (stalled) mirror
	// copy, well past the 5ms hedge delay.
	buf := make([]byte, elementSize)
	for stripe := 0; stripe < stripes; stripe++ {
		for row := 0; row < n; row++ {
			off := (int64(stripe)*int64(n)*int64(n) + int64(row)*int64(n)) * elementSize
			if _, err := v.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, payload[off:off+int64(elementSize)]) {
				t.Fatalf("degraded read at %d diverges", off)
			}
		}
	}
	if hs := v.Stats().Hedge; hs.Attempts != 0 {
		t.Fatalf("hedged against a single surviving copy: %+v", hs)
	}
}

// TestHedgedBackupFailsOver: a hedge's backup is a fetch like any other,
// so when the copy it tries first answers with an error it moves on to
// the next one instead of waiting the straggling primary out.
func TestHedgedBackupFailsOver(t *testing.T) {
	const n, stripes, elementSize = 3, 2, 64
	arch := raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1))
	inject := map[raid.DiskID]faultinject.Config{}
	for _, id := range arch.Disks() {
		switch id.Role {
		case raid.RoleData:
			inject[id] = faultinject.Config{Seed: 6, StallEvery: 1, StallFor: 400 * time.Millisecond}
		case raid.RoleMirror:
			inject[id] = faultinject.Config{Seed: 6, ErrEvery: 1}
		}
	}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(inject))
	v, err := New(arch, backends.addrs, hedgedConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 27)

	buf := make([]byte, elementSize)
	start := time.Now()
	if _, err := v.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(buf, payload[:elementSize]) {
		t.Fatal("hedged read served by the third copy diverges from payload")
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("read took %v: the backup waited out the 400ms primary instead of failing over", elapsed)
	}
	if hs := v.Stats().Hedge; hs.Wins != 1 {
		t.Fatalf("want exactly one hedge win, got %+v", hs)
	}
	t.Logf("read served by the third copy in %v", elapsed)
}

// TestHedgedReadIdleCost: a hedged read that beats its delay must not
// pay for the backup it never sends — no scratch copy of the read, no
// hedge attempt.
func TestHedgedReadIdleCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, stripes, elementSize = 4, 8, 16 << 10
	const readSize, reads = 1 << 20, 32
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, elementSize, stripes)
	cfg := hedgedConfig(elementSize, stripes)
	cfg.HedgeMaxDelay = 10 * time.Second
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 28)

	buf := make([]byte, readSize)
	read := func(i int) {
		off := int64(i) * readSize % v.Size()
		if _, err := v.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+readSize]) {
			t.Fatalf("read at %d diverges from payload", off)
		}
	}
	read(0) // dial the pools, size the pooled plan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	if perRead > readSize/10 {
		t.Fatalf("an idle hedged 1 MiB read allocated %d bytes, want under %d", perRead, readSize/10)
	}
	if hs := v.Stats().Hedge; hs.Attempts != 0 {
		t.Fatalf("healthy loopback reads outlasted a 10s hedge delay: %+v", hs)
	}
	t.Logf("%d bytes allocated per idle hedged 1 MiB read", perRead)
}

// TestReadAtCtxCancellation: a cancelled context must surface promptly
// as context.Canceled — both when cancelled up front and when cancelled
// mid-stall, without waiting out the straggler or the op timeout.
func TestReadAtCtxCancellation(t *testing.T) {
	const n, stripes, elementSize = 3, 2, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	straggler := raid.DiskID{Role: raid.RoleData, Index: 0}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(map[raid.DiskID]faultinject.Config{
		straggler: {Seed: 4, StallEvery: 1, StallFor: time.Second},
	}))
	v, err := New(arch, backends.addrs, fastConfig(elementSize, stripes)) // no hedging to rescue the read
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 25)

	buf := make([]byte, elementSize)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.ReadAtCtx(ctx, buf, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled read returned %v, want context.Canceled", err)
	}
	if _, err := v.WriteAtCtx(ctx, buf, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled write returned %v, want context.Canceled", err)
	}

	// Cancel while the read is stuck inside the straggler's 1s stall: the
	// connection watchdog must interrupt the frame mid-flight.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = v.ReadAtCtx(ctx, buf, 0) // element on the stalled data[0]
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stall cancel returned %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled read took %v, want well under the 1s stall", elapsed)
	}
}

// TestRebuildDiskCancelResumable: cancelling a rebuild mid-run must
// return promptly, keep the watermark where it stood, and let a later
// RebuildDisk finish from there with a byte-perfect image.
func TestRebuildDiskCancelResumable(t *testing.T) {
	const n, stripes, elementSize = 3, 16, 64
	arch := raid.NewMirror(layout.NewShifted(n))
	// Every rebuild source read crawls, so the cancel lands mid-rebuild.
	inject := map[raid.DiskID]faultinject.Config{}
	for _, id := range arch.Disks() {
		if id.Role == raid.RoleMirror {
			inject[id] = faultinject.Config{Seed: 5, ReadDelay: 30 * time.Millisecond}
		}
	}
	backends := startBackends(t, arch, elementSize, stripes, withFaults(inject))
	cfg := fastConfig(elementSize, stripes)
	cfg.RebuildBatch = 1
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	payload := randomPayload(t, v, 26)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- v.RebuildDisk(ctx, lost) }()
	// Wait for real progress, then pull the plug mid-slice.
	progressAt := func() int { return v.state.Load().slots[slotOf(v, lost)].progress }
	waitUntil := time.Now().Add(10 * time.Second)
	for progressAt() < 2 {
		if time.Now().After(waitUntil) {
			t.Fatal("rebuild made no progress before cancel")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	cancelled := time.Now()
	err = <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild returned %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > cfg.OpTimeout {
		t.Fatalf("cancelled rebuild took %v to return, want < op timeout %v", d, cfg.OpTimeout)
	}
	watermark := progressAt()
	if watermark < 2 || watermark >= stripes {
		t.Fatalf("watermark %d after cancel, want partial progress in [2, %d)", watermark, stripes)
	}
	if stillFailed := v.state.Load().slots[slotOf(v, lost)].failed; !stillFailed {
		t.Fatal("cancelled rebuild returned the disk to service")
	}

	// Resume: a fresh call picks up at the watermark and completes.
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatalf("resumed rebuild failed: %v", err)
	}
	want := expectedDiskImage(arch, lost, payload, elementSize, stripes)
	got := make([]byte, len(want))
	if _, err := backends.stores[lost].ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed rebuild image diverges from local rebuild")
	}
	full := make([]byte, v.Size())
	if _, err := v.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("post-resume read diverges from payload")
	}
}

// TestHedgeClock: the shared hedge timer fires every hedge that comes
// due — each once, whatever order they were added in — and none that
// was withdrawn first; withdraw reports which of the two happened, and
// the timer is left unarmed once nothing is pending.
func TestHedgeClock(t *testing.T) {
	var c hedgeClock
	fired := make(chan int, 8)
	mk := func(id int) *hedge { return &hedge{fire: func() { fired <- id }} }
	late, early, kept := mk(1), mk(2), mk(3)
	c.add(late, 40*time.Millisecond)
	c.add(early, 10*time.Millisecond) // earlier than the armed timer: re-arms it
	c.add(kept, time.Hour)
	var got []int
	for len(got) < 2 {
		select {
		case id := <-fired:
			got = append(got, id)
		case <-time.After(10 * time.Second):
			t.Fatalf("fired %v, want both due hedges", got)
		}
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("fired %v, want [2 1]", got)
	}
	if c.withdraw(early) || c.withdraw(late) {
		t.Fatal("withdraw reported a fired hedge as pending")
	}
	if !c.withdraw(kept) {
		t.Fatal("withdraw reported a pending hedge as fired")
	}
	if c.withdraw(kept) {
		t.Fatal("a hedge was withdrawn twice")
	}
	// One due hedge withdrawn before its time: the sweep it armed finds
	// nothing due and leaves the timer unarmed.
	gone := mk(4)
	c.add(gone, 5*time.Millisecond)
	if !c.withdraw(gone) {
		t.Fatal("withdraw reported a pending hedge as fired")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		armed, pending := c.armed, len(c.hedges)
		c.mu.Unlock()
		if pending != 0 {
			t.Fatalf("%d hedges pending after everything was withdrawn", pending)
		}
		if armed.IsZero() {
			break // the sweep ran
		}
		if time.Now().After(deadline) {
			t.Fatalf("clock still armed at %v with nothing pending", armed)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case id := <-fired:
		t.Fatalf("hedge %d fired after it was withdrawn", id)
	default:
	}
}
