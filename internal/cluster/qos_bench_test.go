package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// QoS benchmarks feed the BENCH_qos.json ratio gates. Absolute MB/s on
// loopback means little across machines, so the gates hold within-run
// ratios instead:
//
//   - qos-idle-overhead: RebuildQoSIdle / RebuildNoQoS — an idle
//     controller (quiet windows ramp it to the cap) must not tax the
//     rebuild much.
//   - rebuild-rate-under-SLO: RebuildQoSUnderLoad / RebuildQoSIdle — a
//     rebuild squeezed to the floor by a violated SLO still makes
//     forward progress at a bounded fraction of the idle rate.
//   - read-during-rebuild: UserReadDuringRebuild / UserReadIdle — user
//     reads keep a bounded fraction of their idle throughput while a
//     throttled rebuild runs (the benchmark-side face of the p99 gate
//     in examples/clusterrecon -live).
//   - hedge-idle-overhead: UserReadHedgedIdle / UserReadIdle — a hedged
//     read that beats its delay costs a context and a place on the
//     volume's shared hedge clock, not a goroutine hand-off, a scratch
//     copy or a timer of its own (whose arming woke the network poller
//     on every read).
//   - write-during-scrub: UserWriteDuringScrub / UserWriteIdle — the
//     price of the scrub's fence: a write to the stripes of the batch in
//     flight waits for one gather, and the rest keep their pace.
//
// The under-load configs pin the SLO at 25us — below the fetch
// histogram's smallest bucket bound, so any window with samples reads
// as a violation and the controller deterministically sits at the
// floor, making the throttled rate token arithmetic rather than a
// machine-speed lottery.

const (
	benchElement = 4096
	benchStripes = 16
)

// benchQoSConfig pins a fast feedback interval so the ramp (idle) and
// the clamp (violated) both settle within the first few milliseconds
// of a rebuild.
func benchQoSConfig(slo time.Duration, minRate, maxRate float64) Config {
	cfg := fastConfig(benchElement, benchStripes)
	cfg.RebuildQoSSLO = slo
	cfg.RebuildQoSMinRate = minRate
	cfg.RebuildQoSMaxRate = maxRate
	cfg.RebuildQoSInterval = 2 * time.Millisecond
	return cfg
}

func benchQoSVolume(b *testing.B, cfg Config) *Volume {
	b.Helper()
	arch := raid.NewMirror(layout.NewShifted(3))
	backends := startBackends(b, arch, benchElement, benchStripes)
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(v.Close)
	randomPayload(b, v, 41)
	return v
}

// rebuildOnce fails the disk and rebuilds it in place (the backend and
// its bytes survive, so every iteration does identical gather and
// write-back work).
func rebuildOnce(b *testing.B, v *Volume, lost raid.DiskID) {
	b.Helper()
	if err := v.Fail(lost); err != nil {
		b.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		b.Fatal(err)
	}
}

func benchRebuild(b *testing.B, cfg Config) {
	v := benchQoSVolume(b, cfg)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	diskBytes := int64(benchStripes) * 3 * benchElement
	b.SetBytes(diskBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuildOnce(b, v, lost)
	}
}

// BenchmarkRebuildNoQoS is the unthrottled baseline rebuild.
func BenchmarkRebuildNoQoS(b *testing.B) {
	benchRebuild(b, fastConfig(benchElement, benchStripes))
}

// BenchmarkRebuildQoSIdle: controller enabled, no user traffic — quiet
// windows ramp the slow-start rate to the cap, so the cost over NoQoS
// is the ramp plus token bookkeeping.
func BenchmarkRebuildQoSIdle(b *testing.B) {
	benchRebuild(b, benchQoSConfig(10*time.Millisecond, 50, 1e6))
}

// BenchmarkRebuildQoSUnderLoad: concurrent readers keep the fetch
// histogram populated while the 25us SLO marks every window violated,
// so the controller clamps the rebuild to the 50 stripes/s floor.
func BenchmarkRebuildQoSUnderLoad(b *testing.B) {
	v := benchQoSVolume(b, benchQoSConfig(25*time.Microsecond, 50, 1e6))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, benchElement)
			off := int64(0)
			for ctx.Err() == nil {
				if _, err := v.ReadAtCtx(ctx, buf, off); err != nil {
					return
				}
				off = (off + benchElement) % v.Size()
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	b.SetBytes(int64(benchStripes) * 3 * benchElement)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuildOnce(b, v, lost)
	}
	b.StopTimer()
}

func benchUserReads(b *testing.B, v *Volume) {
	buf := make([]byte, benchElement)
	b.SetBytes(benchElement)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * benchElement) % v.Size()
		if _, err := v.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkUserReadIdle is the healthy-volume read baseline with the
// controller configured (but no rebuild running).
func BenchmarkUserReadIdle(b *testing.B) {
	v := benchQoSVolume(b, benchQoSConfig(25*time.Microsecond, 50, 1e6))
	benchUserReads(b, v)
}

// BenchmarkUserReadHedgedIdle is the same healthy volume with hedging on
// at the default clamps: no loopback read outlasts its delay, so the gap
// to UserReadIdle is what a hedge costs when it does not fire.
func BenchmarkUserReadHedgedIdle(b *testing.B) {
	cfg := benchQoSConfig(25*time.Microsecond, 50, 1e6)
	cfg.HedgeEnabled = true
	benchUserReads(b, benchQoSVolume(b, cfg))
}

// BenchmarkUserReadDuringRebuild times the same reads while a
// floor-clamped rebuild loops in the background: the reads themselves
// violate the 25us SLO, so the rebuild runs at 50 stripes/s and the
// reads' throughput loss is bounded by the slice lock holds that rate
// admits.
func BenchmarkUserReadDuringRebuild(b *testing.B) {
	v := benchQoSVolume(b, benchQoSConfig(25*time.Microsecond, 50, 1e6))
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if err := v.Fail(lost); err != nil {
				return
			}
			if err := v.RebuildDisk(ctx, lost); err != nil {
				return
			}
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	// Let the first rebuild reach its floor-paced steady state before
	// timing anything.
	time.Sleep(20 * time.Millisecond)
	benchUserReads(b, v)
}

func benchUserWrites(b *testing.B, v *Volume) {
	buf := make([]byte, benchElement)
	b.SetBytes(benchElement)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * benchElement) % v.Size()
		if _, err := v.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkUserWriteIdle is the healthy-volume write baseline, on the
// volume BenchmarkUserReadIdle reads.
func BenchmarkUserWriteIdle(b *testing.B) {
	benchUserWrites(b, benchQoSVolume(b, benchQoSConfig(25*time.Microsecond, 50, 1e6)))
}

// BenchmarkUserWriteDuringScrub times the same writes while ScrubOnline
// passes loop in the background. Writes feed no fetch latency, so the
// controller reads every window as idle and the scrub runs at its cap:
// batch after batch fences its stripes, and a write that lands on them
// waits for the batch's gather.
func BenchmarkUserWriteDuringScrub(b *testing.B) {
	v := benchQoSVolume(b, benchQoSConfig(25*time.Microsecond, 50, 1e6))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			v.ScrubOnline(ctx)
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	benchUserWrites(b, v)
}
