package shard

import (
	"context"
	"testing"
)

// The shard layer adds nothing to the child volume's small-op budget
// (cluster.TestVolumeSmallOpAllocs): a request inside one group is
// split into a stack array of segments, handed to the group as a stack
// array of pieces and driven on the caller's goroutine, so a 4 KiB read
// still allocates nothing and a write only the one goroutine closure of
// its second mirror copy — under context.Background() and under one
// long-lived cancellable context alike. Same method as
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
	// An offset in the second logical stripe, i.e. on the second group.
	const at = (n*n + 5) * elementSize
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
			{"4 KiB sub-element write", 1, func() error { _, err := s.WriteAtCtx(ctx, small, at+4096); return err }},
			{"one-element write", 1, func() error { _, err := s.WriteAtCtx(ctx, elem, at+elementSize); return err }},
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
