package cluster

import (
	"context"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// The volume's small-op budget above the wire (which is pinned at zero
// in internal/blockserver): planning runs from a pooled opPlan and a
// precomputed placement table, and an op that touches one backend runs
// on the caller's goroutine, so a healthy 4 KiB read allocates nothing
// here. A write reaches one backend per copy; each backend beyond the
// first costs the one closure its goroutine starts from — one
// allocation on a two-copy mirror. A degraded read pays nothing extra:
// skipping a failed disk is a table walk. Measured over
// context.Background() after a warm-up that grows the plan, like
// TestVectoredOpsAllocFree.
func TestVolumeSmallOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const n, stripes, elementSize = 4, 4, 16 << 10
	v, _ := newTestVolume(t, raid.NewMirror(layout.NewShifted(n)), elementSize, stripes)
	randomPayload(t, v, 71)
	ctx := context.Background()
	small := make([]byte, 4<<10)
	elem := make([]byte, elementSize)
	pin := func(name string, budget float64, op func() error) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}); allocs > budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, allocs, budget)
		}
	}
	read4k := func() error { _, err := v.ReadAtCtx(ctx, small, 5*elementSize+4096); return err }
	pin("4 KiB read", 0, read4k)
	pin("4 KiB sub-element write", 1, func() error { _, err := v.WriteAtCtx(ctx, small, 5*elementSize+4096); return err })
	pin("one-element write", 1, func() error { _, err := v.WriteAtCtx(ctx, elem, 6*elementSize); return err })
	// Element 5 is data disk 1's; with that disk failed the same read
	// is served by its replica.
	if err := v.Fail(raid.DiskID{Role: raid.RoleData, Index: 1}); err != nil {
		t.Fatal(err)
	}
	before := v.Stats().DegradedReads
	pin("degraded 4 KiB read", 0, read4k)
	if v.Stats().DegradedReads == before {
		t.Fatal("the degraded leg was served by the primary copy")
	}
}
