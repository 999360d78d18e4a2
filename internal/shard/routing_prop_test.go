package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestShardRoutingProperty is the routing correctness property over
// random geometries: the extent table must be a bijection between
// logical stripe slots and the union of every group's physical
// stripes (so every logical byte maps to exactly one (group, stripe,
// element) and nothing is shadowed or lost), and a sharded write→read
// must round-trip byte-identically — including reads that span at
// least three group boundaries.
func TestShardRoutingProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)                    // 2..4
		elementSize := int64(16 << rng.Intn(3)) // 16, 32, 64
		groups := 2 + rng.Intn(3)               // 2..4
		stripesPer := make([]int, groups)
		for i := range stripesPer {
			// Min 2 so the first two round-robin rows are full: with >= 2
			// groups that guarantees >= 3 group boundaries in the first 4
			// logical slots, which the spanning-read check relies on.
			stripesPer[i] = 2 + rng.Intn(4)
		}
		name := fmt.Sprintf("n%d_e%d_%v", n, elementSize, stripesPer)
		t.Run(name, func(t *testing.T) {
			s, _ := newTestShard(t, n, elementSize, stripesPer, Config{})
			stripeB := int64(n*n) * elementSize

			// Bijection: every (group, stripe) of every group appears in
			// the extent table exactly once, and the table has exactly one
			// slot per physical stripe.
			total := 0
			for _, st := range stripesPer {
				total += st
			}
			ext := s.ExtentTable()
			if len(ext) != total {
				t.Fatalf("%d extents for %d physical stripes", len(ext), total)
			}
			seen := map[Extent]int{}
			for slot, e := range ext {
				if prev, dup := seen[e]; dup {
					t.Fatalf("extent %+v mapped by slots %d and %d", e, prev, slot)
				}
				seen[e] = slot
				if e.Group < 0 || e.Group >= groups {
					t.Fatalf("slot %d references unknown group %d", slot, e.Group)
				}
				if e.Stripe < 0 || e.Stripe >= stripesPer[e.Group] {
					t.Fatalf("slot %d references stripe %d beyond group %d's %d", slot, e.Stripe, e.Group, stripesPer[e.Group])
				}
			}
			if s.Size() != int64(total)*stripeB {
				t.Fatalf("size %d, want %d", s.Size(), int64(total)*stripeB)
			}

			// Round trip + per-byte placement: the bytes of logical slot k
			// must be exactly what the owning child volume serves at its
			// physical stripe offset.
			payload := shardPayload(t, s, int64(trial))
			got := make([]byte, s.Size())
			if _, err := s.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("full round trip mismatch")
			}
			for slot, e := range ext {
				child, ok := s.GroupVolume(e.Group)
				if !ok {
					t.Fatalf("group %d vanished", e.Group)
				}
				stripe := make([]byte, stripeB)
				if _, err := child.ReadAt(stripe, int64(e.Stripe)*stripeB); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stripe, payload[int64(slot)*stripeB:int64(slot+1)*stripeB]) {
					t.Fatalf("slot %d bytes diverge from child (%d, stripe %d)", slot, e.Group, e.Stripe)
				}
			}

			// Reads and writes spanning >= 3 group boundaries: a span of
			// min(5, total) stripe slots crosses at least 4 slot boundaries;
			// with round-robin dealing consecutive slots alternate groups,
			// so >= 3 of them are group boundaries whenever groups >= 2.
			span := int64(5)
			if int64(total) < span {
				span = int64(total)
			}
			{
				boundaries := 0
				for k := int64(1); k < span; k++ {
					if ext[k-1].Group != ext[k].Group {
						boundaries++
					}
				}
				if boundaries < 3 {
					t.Fatalf("test geometry too degenerate: %d group boundaries in %d slots", boundaries, span)
				}
				lo := stripeB/2 + 1 // unaligned start, mid-element
				hi := span*stripeB - stripeB/3
				patch := make([]byte, hi-lo)
				rng.Read(patch)
				if _, err := s.WriteAt(patch, lo); err != nil {
					t.Fatal(err)
				}
				copy(payload[lo:hi], patch)
				back := make([]byte, hi-lo)
				if _, err := s.ReadAt(back, lo); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, patch) {
					t.Fatal("multi-boundary span round trip mismatch")
				}
				full := make([]byte, s.Size())
				if _, err := s.ReadAt(full, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(full, payload) {
					t.Fatal("multi-boundary write disturbed bytes outside its span")
				}
			}
		})
	}
}

// TestShardSegments pins the splitter directly: segments must tile the
// request exactly, stay within one stripe's remainder each before
// merging, and merge only contiguous same-group runs.
func TestShardSegments(t *testing.T) {
	s, _ := newTestShard(t, 2, 32, []int{3, 1, 2}, Config{})
	stripeB := int64(2*2) * 32
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, tc := range []struct {
		off int64
		n   int
	}{
		{0, int(stripeB)},
		{stripeB - 5, 10},
		{1, int(4*stripeB) - 2},
		{stripeB / 2, int(3 * stripeB)},
	} {
		segs := s.segments(nil, tc.off, tc.n)
		at := 0
		logical := tc.off
		for _, sg := range segs {
			if sg.lo != at {
				t.Fatalf("off=%d n=%d: gap at buffer %d (segment starts %d)", tc.off, tc.n, at, sg.lo)
			}
			length := sg.hi - sg.lo
			if length <= 0 {
				t.Fatalf("empty segment %+v", sg)
			}
			// Every byte of the segment must belong to sg.gid per the
			// extent table.
			for b := 0; b < length; b++ {
				slot := (logical + int64(b)) / stripeB
				if e := s.extents[slot]; e.Group != sg.gid {
					t.Fatalf("byte at logical %d routed to group %d, extent says %d", logical+int64(b), sg.gid, e.Group)
				}
			}
			// Child offset must match the first byte's extent mapping.
			slot := logical / stripeB
			inner := logical % stripeB
			if want := int64(s.extents[slot].Stripe)*stripeB + inner; sg.childOff != want {
				t.Fatalf("segment %+v childOff %d, want %d", sg, sg.childOff, want)
			}
			at = sg.hi
			logical += int64(length)
		}
		if at != tc.n {
			t.Fatalf("off=%d n=%d: segments cover %d bytes", tc.off, tc.n, at)
		}
	}
}
