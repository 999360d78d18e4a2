package shard

import (
	"context"
	"testing"
)

// The shard layer adds nothing to the child volume's small-op budget
// (cluster.TestVolumeSmallOpAllocs): a request inside one group is
// split into a stack array of segments, handed to the group as a stack
// array of pieces and driven on the caller's goroutine, so a 4 KiB read
// or write allocates nothing — under context.Background() and under one
// long-lived cancellable context alike. A request straddling two groups
// allocates nothing either: its second group's leg goes to a parked
// group worker with a pooled call as its scratch. Same method as
// blockserver.TestVectoredOpsAllocFree.
func TestShardSmallOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const n, stripes, elementSize = 4, 4, 16 << 10
	s, _ := newTestShard(t, n, elementSize, []int{stripes, stripes}, Config{})
	shardPayload(t, s, 72)
	small := make([]byte, 4<<10)
	elem := make([]byte, elementSize)
	// An offset in the second logical stripe, i.e. on the second group;
	// straddle starts 2 KiB before the end of the first logical stripe.
	const at = (n*n + 5) * elementSize
	const straddle = n*n*elementSize - 2048
	before := s.stats.boundarySplits.Load()
	if _, err := s.ReadAt(small, straddle); err != nil {
		t.Fatal(err)
	}
	if s.stats.boundarySplits.Load() == before {
		t.Fatal("the straddling request stayed inside one group")
	}
	long, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", long}} {
		ctx := c.ctx
		for _, op := range []struct {
			name   string
			budget float64
			run    func() error
		}{
			{"4 KiB read", 0, func() error { _, err := s.ReadAtCtx(ctx, small, at+4096); return err }},
			{"4 KiB sub-element write", 0, func() error { _, err := s.WriteAtCtx(ctx, small, at+4096); return err }},
			{"one-element write", 0, func() error { _, err := s.WriteAtCtx(ctx, elem, at+elementSize); return err }},
			{"4 KiB read straddling two groups", 0, func() error { _, err := s.ReadAtCtx(ctx, small, straddle); return err }},
			{"4 KiB write straddling two groups", 0, func() error { _, err := s.WriteAtCtx(ctx, small, straddle); return err }},
		} {
			if allocs := testing.AllocsPerRun(100, func() {
				if err := op.run(); err != nil {
					t.Fatal(err)
				}
			}); allocs > op.budget {
				t.Errorf("%s (%s): %.1f allocs/op, budget %.0f", op.name, c.name, allocs, op.budget)
			}
		}
	}
}
