package cluster

import (
	"context"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// The volume's small-op budget above the wire (which is pinned at zero
// in internal/blockserver): planning runs from a pooled opPlan and a
// precomputed placement table, an op that touches one backend runs on
// the caller's goroutine, and every backend beyond the first is handed
// to a parked share worker as a value (fanout.Workers), so a small op
// allocates nothing here however many backends it reaches: a 4 KiB
// read (one backend), a write on a two-copy mirror (two), a degraded
// read (skipping a failed disk is a table walk), and on a
// mirror-with-parity volume a read of an element whose two copies are
// both lost — the XOR of its row, n−1 row-mates on the other data disks
// and the row's parity, n backends, the row-mates' scratch the pooled
// sub-plan's. Each budget holds under context.Background() and under
// one long-lived cancellable context alike: a connection registers its
// cancel callback on the context's first exchange and keeps it.
// Measured after a warm-up that grows the plan and parks the workers,
// like TestVectoredOpsAllocFree.
func TestVolumeSmallOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const n, stripes, elementSize = 4, 4, 16 << 10
	long, cancel := context.WithCancel(context.Background())
	defer cancel()
	pin := func(t *testing.T, name string, budget float64, op func() error) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}); allocs > budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, allocs, budget)
		}
	}
	small := make([]byte, 4<<10)
	elem := make([]byte, elementSize)
	// Element 5 is data disk 1's row 1 in stripe 0.
	const at = 5*elementSize + 4096
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", long}} {
		ctx := c.ctx
		t.Run(c.name+"/mirror", func(t *testing.T) {
			v, _ := newTestVolume(t, raid.NewMirror(layout.NewShifted(n)), elementSize, stripes)
			randomPayload(t, v, 71)
			read4k := func() error { _, err := v.ReadAtCtx(ctx, small, at); return err }
			pin(t, "4 KiB read", 0, read4k)
			pin(t, "4 KiB sub-element write", 0, func() error { _, err := v.WriteAtCtx(ctx, small, at); return err })
			pin(t, "one-element write", 0, func() error { _, err := v.WriteAtCtx(ctx, elem, 6*elementSize); return err })
			// With data disk 1 failed the same read is served by its replica.
			if err := v.Fail(raid.DiskID{Role: raid.RoleData, Index: 1}); err != nil {
				t.Fatal(err)
			}
			before := v.Stats().DegradedReads
			pin(t, "degraded 4 KiB read", 0, read4k)
			if v.Stats().DegradedReads == before {
				t.Fatal("the degraded leg was served by the primary copy")
			}
		})
		t.Run(c.name+"/parity", func(t *testing.T) {
			v, _ := newTestVolume(t, raid.NewMirrorWithParity(layout.NewShifted(n)), elementSize, stripes)
			randomPayload(t, v, 72)
			for _, loc := range v.locations(0, 1, 1) {
				if err := v.Fail(loc.id); err != nil {
					t.Fatal(err)
				}
			}
			before := v.Health().ParityReads
			pin(t, "doubly-degraded 4 KiB read", 0, func() error { _, err := v.ReadAtCtx(ctx, small, at); return err })
			if v.Health().ParityReads == before {
				t.Fatal("the doubly-degraded leg was not served from parity")
			}
		})
	}
}

// TestScrubAllocsPerBatch: a scrub pass runs every batch from one
// scratch — the plan, the element bytes or checksums, the parity row —
// and hands the fan-out's shares to the volume's parked share workers,
// so what a pass allocates per batch is its window alone (the window,
// its channel, the two state swaps that publish and retire it): 7 on
// the eight backends of n = 4, where a goroutine per backend beyond the
// first made it 14. It is measured as the difference between a 32-batch
// and an 8-batch pass over 24, plain and with WireCRC's checksum
// comparison.
func TestScrubAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const n, elementSize, budget = 4, 512, 8
	arch := raid.NewMirror(layout.NewShifted(n))
	for _, crc := range []bool{false, true} {
		name := "plain"
		if crc {
			name = "crc"
		}
		t.Run(name, func(t *testing.T) {
			pass := func(stripes int) float64 {
				var opts []backendOpt
				if crc {
					opts = append(opts, withCRC(elementSize))
				}
				backends := startBackends(t, arch, elementSize, stripes, opts...)
				cfg := fastConfig(elementSize, stripes)
				cfg.RebuildBatch, cfg.WireCRC = 1, crc
				v, err := New(arch, backends.addrs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(v.Close)
				randomPayload(t, v, 91)
				return testing.AllocsPerRun(20, func() {
					rep, err := v.Scrub(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if crc && rep.ChecksumCompared == 0 {
						t.Fatal("the WireCRC pass compared no checksums")
					}
				})
			}
			few, many := pass(8), pass(32)
			perBatch := (many - few) / 24
			t.Logf("%.0f allocs for 8 batches, %.0f for 32: %.1f per batch", few, many, perBatch)
			if perBatch > budget {
				t.Errorf("%.1f allocs per scrub batch, budget %d", perBatch, budget)
			}
		})
	}
}
