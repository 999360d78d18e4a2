package shard

import (
	"context"
	"testing"
)

// The shard layer adds nothing to the child volume's small-op budget
// (cluster.TestVolumeSmallOpAllocs): a request inside one group is
// split into a stack array of segments and driven on the caller's
// goroutine, so a 4 KiB read still allocates nothing and a write only
// the one goroutine closure of its second mirror copy. Same method as
// blockserver.TestVectoredOpsAllocFree.
func TestShardSmallOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const n, stripes, elementSize = 4, 4, 16 << 10
	s, _ := newTestShard(t, n, elementSize, []int{stripes, stripes}, Config{})
	shardPayload(t, s, 72)
	ctx := context.Background()
	small := make([]byte, 4<<10)
	elem := make([]byte, elementSize)
	// An offset in the second logical stripe, i.e. on the second group.
	const at = (n*n + 5) * elementSize
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
			t.Errorf("%s: %.1f allocs/op, budget %.0f", op.name, allocs, op.budget)
		}
	}
}
