package cluster

import (
	"context"
	"sync"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/raid"
)

// Layout benchmarks feed the BENCH_layouts.json ratio gates. As with
// the QoS gates, absolute loopback MB/s means nothing across machines,
// so the gates hold within-run ratios. Backends are read-throttled
// (the blockserver limiter paces every byte, no burst), which makes a
// rebuild's wall clock the busiest source backend's byte count divided
// by the rate — i.e. the layout's fan-out, as arithmetic:
//
//   - traditional gathers everything from the single twin (1x),
//   - rotated (g=2 at n=4) from n/g = 2 backends (2x),
//   - shifted from all n = 4 mirror backends (4x),
//   - declustered from all 2n-1 = 7 survivors (7x).
//
// LayoutDegradedRead times user reads of the lost disk's elements
// while a rebuild loops: under traditional both the detoured reads and
// the whole gather queue on the twin's limiter; spread layouts leave
// the detour targets mostly idle.

const (
	layoutBenchN       = 4
	layoutBenchStripes = 14 // multiple of the declustered period (7) at n=4
	layoutBenchElement = 1024
	layoutBenchRate    = 4e6 // bytes/sec per backend
)

// layoutBenchFamilies: baseline first; sub-benchmark names feed the
// BENCH_layouts.json gate, so renaming one breaks CI on purpose.
var layoutBenchFamilies = []string{"traditional", "rotated", "shifted", "declustered"}

// layoutBenchVolume builds a filled volume running the named layout
// over throttled backends.
func layoutBenchVolume(b *testing.B, name string, rate float64) *Volume {
	b.Helper()
	arch := layoutArch(b, name, layoutBenchN)
	var opts []backendOpt
	if rate > 0 {
		opts = append(opts, withServerOptions(blockserver.WithReadRate(rate)))
	}
	backends := startBackends(b, arch, layoutBenchElement, layoutBenchStripes, opts...)
	cfg := fastConfig(layoutBenchElement, layoutBenchStripes)
	// One slice per rebuild: each backend's share is a single paced
	// transfer well above sleep granularity, so the wall clock is the
	// limiter arithmetic, not timer resolution.
	cfg.RebuildBatch = layoutBenchStripes
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(v.Close)
	randomPayload(b, v, 43)
	return v
}

// BenchmarkLayoutRebuild: one lose-and-rebuild cycle per iteration over
// read-throttled backends — MB/s is proportional to the layout's
// rebuild-source fan-out.
func BenchmarkLayoutRebuild(b *testing.B) {
	for _, name := range layoutBenchFamilies {
		b.Run(name, func(b *testing.B) {
			v := layoutBenchVolume(b, name, layoutBenchRate)
			lost := raid.DiskID{Role: raid.RoleData, Index: 0}
			b.SetBytes(int64(layoutBenchStripes) * layoutBenchN * layoutBenchElement)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rebuildOnce(b, v, lost)
			}
		})
	}
}

// BenchmarkLayoutDegradedRead: seeded reads of the lost disk's
// elements while a rebuild loops in the background. Every read detours
// to a replica; the layout decides whether those replicas share a
// throttled backend with the rebuild gather.
func BenchmarkLayoutDegradedRead(b *testing.B) {
	for _, name := range layoutBenchFamilies {
		b.Run(name, func(b *testing.B) {
			v := layoutBenchVolume(b, name, layoutBenchRate)
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
			// Sweep the lost disk's logical elements: stripe by stripe,
			// the n elements data disk 0 holds under the classic frame.
			buf := make([]byte, layoutBenchElement)
			stripeBytes := int64(layoutBenchN) * layoutBenchN * layoutBenchElement
			b.SetBytes(layoutBenchElement)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stripe := int64(i/layoutBenchN) % int64(layoutBenchStripes)
				row := int64(i % layoutBenchN)
				off := stripe*stripeBytes + row*int64(layoutBenchN)*layoutBenchElement
				if _, err := v.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkLayoutWrite: full-volume fill per iteration, unthrottled
// (the limiter paces reads only) — a layout changing the write fan-out
// or amplification shows up directly.
func BenchmarkLayoutWrite(b *testing.B) {
	for _, name := range layoutBenchFamilies {
		b.Run(name, func(b *testing.B) {
			v := layoutBenchVolume(b, name, 0)
			payload := make([]byte, v.Size())
			b.SetBytes(v.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.WriteAt(payload, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}
