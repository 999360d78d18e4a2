package cluster

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestVolumePipelinedEndToEnd runs the full volume lifecycle — fill,
// verify, fail, degraded read, rebuild, scrub — over the pipelined wire
// mode with end-to-end CRC, and checks the pipeline actually carried
// the traffic: ops submitted, frames coalesced into fewer writevs, and
// a drained window at rest.
func TestVolumePipelinedEndToEnd(t *testing.T) {
	const element = 512
	const stripes = 4
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(t, arch, element, stripes, withCRC(element))
	cfg := fastConfig(element, stripes)
	cfg.WireCRC = true
	cfg.Pipeline = true
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(42)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pipelined read-back mismatch")
	}

	ctx := context.Background()
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	clear(got)
	if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
		t.Fatalf("degraded pipelined read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded pipelined read mismatch")
	}

	if err := v.ReplaceBackend(lost, backends.replace(lost, blockserver.WithCRC(element))); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(ctx, lost); err != nil {
		t.Fatalf("pipelined rebuild: %v", err)
	}
	clear(got)
	if _, err := v.ReadAtCtx(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-rebuild pipelined read mismatch")
	}
	if _, err := v.Scrub(ctx); err != nil {
		t.Fatalf("pipelined scrub: %v", err)
	}

	st := v.Stats()
	ps := st.Pipeline
	if !ps.Enabled {
		t.Fatal("Stats.Pipeline.Enabled false on a pipelined volume")
	}
	if ps.Submitted == 0 {
		t.Fatal("no ops submitted through the pipeline")
	}
	if ps.InFlight != 0 {
		t.Fatalf("window not drained at rest: %d in flight", ps.InFlight)
	}
	if ps.Frames == 0 || ps.Writevs == 0 {
		t.Fatalf("coalescing counters empty: %d frames, %d writevs", ps.Frames, ps.Writevs)
	}
	if ps.Frames < ps.Writevs {
		t.Fatalf("more writevs (%d) than frames (%d)", ps.Writevs, ps.Frames)
	}
	if ps.QueueWait.Count == 0 {
		t.Fatal("queue-wait histogram never observed")
	}
}

// TestPipelinedRebuildUnderLoad is the benchmark's rebuild_fast shape
// on the pipelined transport: two element-sized clients reading and
// writing the rebuilding disk's own elements while the disk is failed
// and rebuilt in place, cycle after cycle. One forced-pipelined
// rebuild_fast run in fourteen once stopped making progress and had to
// be killed with nothing to show for it; here a stall ends at the
// package's -timeout with every goroutine's stack. Each client owns
// half of the disk's elements, so a read must return exactly what that
// client last wrote.
func TestPipelinedRebuildUnderLoad(t *testing.T) {
	const n, element, stripes, cycles = 4, 1024, 64, 40
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, element, stripes, withCRC(element))
	cfg := fastConfig(element, stripes)
	cfg.WireCRC = true // also what orders store accesses for the race detector
	cfg.Pipeline = true
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	shadow := randomPayload(t, v, 71)
	lost := raid.DiskID{Role: raid.RoleData, Index: 1}
	// The lost disk holds one element per stripe row.
	elemOff := func(k int) int64 { return (int64(k)*n + int64(lost.Index)) * element }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(72 + w)))
			buf, got := make([]byte, element), make([]byte, element)
			for i := 0; !stop.Load(); i++ {
				off := elemOff(2*rng.Intn(stripes*n/2) + w)
				mine := shadow[off : off+element]
				if i%2 == 0 {
					rng.Read(buf)
					if _, err := v.WriteAt(buf, off); err != nil {
						t.Errorf("client %d write at %d: %v", w, off, err)
						return
					}
					copy(mine, buf)
				} else if _, err := v.ReadAt(got, off); err != nil {
					t.Errorf("client %d read at %d: %v", w, off, err)
					return
				} else if !bytes.Equal(got, mine) {
					t.Errorf("client %d read at %d: not what it last wrote", w, off)
					return
				}
			}
		}(w)
	}
	ctx := context.Background()
	for c := 0; c < cycles && !t.Failed(); c++ {
		if err := v.Fail(lost); err != nil {
			t.Errorf("cycle %d: %v", c, err)
			break
		}
		if err := v.RebuildDisk(ctx, lost); err != nil {
			t.Errorf("cycle %d rebuild: %v", c, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume diverges from what the clients wrote")
	}
	if _, err := v.Scrub(ctx); err != nil {
		t.Fatalf("scrub after %d rebuild cycles: %v", cycles, err)
	}
	assertCopiesEqual(t, v, backends)
}

// pipeStress is how long TestVolumePipelinedNoLostCompletion keeps its
// closed loop running; the nightly run passes -pipestress 60s.
var pipeStress = flag.Duration("pipestress", 10*time.Second, "duration of TestVolumePipelinedNoLostCompletion's closed loop")

// TestVolumePipelinedNoLostCompletion is the repository benchmark's
// small_rand shape on the pipelined transport, held for longer than any
// other test holds it: two closed-loop clients of 4 KiB reads and writes
// through a volume at its default timeouts. An op whose completion the
// wire client loses stops its client, and a watchdog fails the test
// when one stops for 5 s — well before the 15 s default OpTimeout would
// tear the connection and hide the loss behind a retry (the check on
// retries and errors at the end is for a loss hidden that way). Each
// client owns every other element, so a read must return what that
// client last wrote.
func TestVolumePipelinedNoLostCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop stress: runs for -pipestress (10s by default)")
	}
	const n, element, stripes = 3, 4096, 16
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, element, stripes, withCRC(element))
	v, err := New(arch, backends.addrs, Config{
		ElementSize: element, Stripes: stripes,
		WireCRC:  true, // also what orders store accesses for the race detector
		Pipeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	shadow := randomPayload(t, v, 81)
	elements := int(v.Size() / element)

	ops := make([]atomic.Int64, 2)
	var stop atomic.Bool
	exited := make(chan error, len(ops))
	for w := range ops {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(82 + w)))
			buf := make([]byte, element)
			for i := 0; !stop.Load(); i++ {
				off := int64(2*rng.Intn(elements/2)+w) * element
				mine := shadow[off : off+element]
				if rng.Intn(10) < 3 {
					rng.Read(buf)
					if _, err := v.WriteAt(buf, off); err != nil {
						exited <- fmt.Errorf("client %d write at %d: %w", w, off, err)
						return
					}
					copy(mine, buf)
				} else if _, err := v.ReadAt(buf, off); err != nil {
					exited <- fmt.Errorf("client %d read at %d: %w", w, off, err)
					return
				} else if !bytes.Equal(buf, mine) {
					exited <- fmt.Errorf("client %d read at %d: not what it last wrote", w, off)
					return
				}
				ops[w].Add(1)
			}
			exited <- nil
		}(w)
	}
	const stall = 5 * time.Second
	last := make([]int64, len(ops))
	moved := make([]time.Time, len(ops))
	for w := range moved {
		moved[w] = time.Now()
	}
	for end := time.Now().Add(*pipeStress); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		for w := range ops {
			if k := ops[w].Load(); k != last[w] {
				last[w], moved[w] = k, time.Now()
			} else if time.Since(moved[w]) > stall {
				t.Fatalf("client %d: op %d has not come back in %v with every backend healthy: its completion was lost", w, k+1, stall)
			}
		}
		select {
		case err := <-exited:
			t.Fatalf("a client stopped early: %v", err)
		default:
		}
	}
	stop.Store(true)
	for range ops {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(stall):
			t.Fatal("a client did not come back after the stop: its completion was lost")
		}
	}
	st := v.Stats()
	for _, b := range st.Backends {
		if b.Retries != 0 || b.Errors != 0 {
			t.Fatalf("%s: %d retries and %d errors on a healthy backend, want none", b.Disk, b.Retries, b.Errors)
		}
	}
	if st.Pipeline.InFlight != 0 {
		t.Fatalf("%d ops in flight at rest", st.Pipeline.InFlight)
	}
	t.Logf("%d ops, none lost", ops[0].Load()+ops[1].Load())
}
