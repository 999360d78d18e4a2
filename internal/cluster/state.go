package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// slotState is everything the volume knows about one disk slot. failed
// marks a disk whose content is declared lost; progress is its rebuild
// watermark (stripes already recovered onto the replacement backend,
// served and written there even before RebuildDisk ends). rebuilding
// marks a disk with a RebuildDisk in flight, so a second concurrent
// rebuild of the same disk is rejected instead of racing on the
// watermark. replacement marks a failed disk that has a backend to
// rebuild onto: set by ReplaceBackend on a failed disk and by a
// RebuildDisk attempt, cleared when a rebuild completes. These four,
// the backend (which knows its address) and the backend's dead verdict
// are all the state a disk has; Disks derives everything reported about
// it from them.
type slotState struct {
	be                              backend
	failed, replacement, rebuilding bool
	progress                        int
}

// window is the fence of one stripe walk in flight — a rebuild slice on
// its slot, or a scrub batch on every slot (allSlots): while it is
// published, a write with a copy on a slot it fences in stripes [s0, s1)
// waits for done and plans again. done is closed when the walk ends,
// however it ends.
type window struct {
	slot   int
	s0, s1 int
	done   chan struct{}
}

// allSlots is the slot of a window that fences every slot.
const allSlots = -1

// drainBuckets is how many buckets the write drain is striped into. The
// stripes are cut into ranges of RebuildBatch stripes, the most one
// rebuild slice covers, so a slice's window lies in at most two ranges;
// range r belongs to bucket r mod drainBuckets.
const drainBuckets = 8

// drainSet is a set of write-drain buckets, bit b for bucket b.
type drainSet uint8

const allDrains drainSet = 1<<drainBuckets - 1

// drainSet returns the buckets of stripes [s0, s1).
func (v *Volume) drainSet(s0, s1 int) drainSet {
	r0, r1 := s0/v.cfg.RebuildBatch, (s1-1)/v.cfg.RebuildBatch
	if r1-r0 >= drainBuckets-1 {
		return allDrains
	}
	var set drainSet
	for r := r0; r <= r1; r++ {
		set |= 1 << (r % drainBuckets)
	}
	return set
}

// piecesDrains returns the buckets of every stripe the pieces cover.
func (v *Volume) piecesDrains(pieces []Piece) drainSet {
	var set drainSet
	for _, pc := range pieces {
		if len(pc.Buf) > 0 {
			end := pc.Off + int64(len(pc.Buf))
			set |= v.drainSet(int(pc.Off/v.stripeBytes()), int((end-1)/v.stripeBytes())+1)
		}
	}
	return set
}

// eachDrain applies op — (*sync.RWMutex).Lock, RLock or their unlocks —
// to the buckets of set, in index order: the order everyone takes them
// in, so holders of several cannot deadlock.
func (v *Volume) eachDrain(set drainSet, op func(*sync.RWMutex)) {
	for b := range drainBuckets {
		if set&(1<<b) != 0 {
			op(&v.drain[b])
		}
	}
}

// volState is the volume's per-disk state, immutable once published:
// the data path loads the current one with a single atomic read and
// plans against it with no lock; whoever changes anything publishes a
// modified copy under stateMu. An op therefore sees one consistent
// state for as long as it holds the pointer, and a state change costs
// its author a copy and a pointer store, never a wait for I/O.
type volState struct {
	slots []slotState
	// wins are the windows in flight, oldest first: a rebuild's slice being
	// written back and the one gathered behind it, a scrub's batch. The
	// array is never written once published.
	wins   []*window
	closed bool
}

func (st *volState) clone() *volState {
	next := *st
	next.slots = append([]slotState(nil), st.slots...)
	return &next
}

// available reports whether a disk can serve the given stripe: it is
// healthy, or its rebuild watermark has passed the stripe.
func (st *volState) available(slot, stripe int) bool {
	s := &st.slots[slot]
	return !s.failed || stripe < s.progress
}

// fence returns the window in flight over the stripe on the slot, if
// any. A write checks it before it asks whether the copy is available:
// a scrub batch fences copies that are available, and for a rebuild
// slice the order changes nothing, because a slice's stripes are never
// available on its slot while its window is up — the window opens at
// progress ≤ s0 and comes down in the swap that publishes s1.
func (st *volState) fence(slot, stripe int) *window {
	for _, w := range st.wins {
		if (w.slot == slot || w.slot == allSlots) && stripe >= w.s0 && stripe < w.s1 {
			return w
		}
	}
	return nil
}

// nextLive is the read failover order: the index of the first of an
// element's copies, at or after from, whose disk can serve the stripe,
// or len(locs) when none can.
func (st *volState) nextLive(stripe int, locs []location, from int) int {
	for from < len(locs) && !st.available(locs[from].slot, stripe) {
		from++
	}
	return from
}

// watermark is a disk's availability frontier in stripes.
func (st *volState) watermark(slot, stripes int) int64 {
	if s := &st.slots[slot]; s.failed {
		return int64(s.progress)
	}
	return int64(stripes)
}

// update publishes a copy of the current state as modified by edit, or,
// when edit returns an error, publishes nothing and returns the error.
// It is the only writer of v.state. edit runs under stateMu and must
// not block.
func (v *Volume) update(edit func(next *volState) error) error {
	v.stateMu.Lock()
	defer v.stateMu.Unlock()
	next := v.state.Load().clone()
	if err := edit(next); err != nil {
		return err
	}
	v.state.Store(next)
	return nil
}

// updateSlot is update for one slot's entry.
func (v *Volume) updateSlot(slot int, edit func(s *slotState) error) error {
	return v.update(func(next *volState) error { return edit(&next.slots[slot]) })
}

// openWindow opens the window w of a stripe walk: it pays cost stripes
// of QoS first, so a throttled walk parks with nothing fenced, publishes
// w — edit sets w's bounds against the state it publishes in, or
// refuses — and drains: it takes the write drain's buckets of w's stripes
// exclusively and lets them go. Writes to those stripes planned before
// the publication have then finished, and later ones see the fence. It
// returns the state the publication produced.
func (v *Volume) openWindow(ctx context.Context, cost int, w *window, edit func(next *volState) error) (*volState, error) {
	if err := v.qos.acquire(ctx, cost); err != nil {
		return nil, err
	}
	w.done = make(chan struct{})
	var opened *volState
	err := v.update(func(next *volState) error {
		if err := edit(next); err != nil {
			return err
		}
		next.wins = append(next.wins[:len(next.wins):len(next.wins)], w) // published states share the old array
		opened = next
		return nil
	})
	if err != nil {
		return nil, err
	}
	drains := v.drainSet(w.s0, w.s1)
	v.eachDrain(drains, (*sync.RWMutex).Lock)
	v.eachDrain(drains, (*sync.RWMutex).Unlock) // an empty critical section: the wait is the point
	return opened, nil
}

// endWindow takes w down, if a state swap has not already, and lets the
// writes fenced behind it go.
func (v *Volume) endWindow(w *window) {
	if slices.Contains(v.state.Load().wins, w) {
		v.update(func(next *volState) error {
			next.wins = dropWindow(next.wins, w)
			return nil
		})
	}
	close(w.done)
}

// dropWindow returns wins without w in a new array: states share the old.
func dropWindow(wins []*window, w *window) []*window {
	if len(wins) == 1 && wins[0] == w {
		return nil
	}
	return slices.DeleteFunc(slices.Clone(wins), func(x *window) bool { return x == w })
}

// settleWrites applies what a write's fan-out learned about its
// backends to the state it finds, which may no longer be the one the
// write planned against (pl.st).
//
//   - A verdict about a backend the slot no longer has is dropped: what a
//     write learned about one backend says nothing about its successor.
//     (WriteAtCtx settles under the write drain, which ReplaceBackend
//     holds around its swap, so its verdicts are never that stale; the
//     check makes that the caller's choice, not this function's
//     assumption.)
//   - A transport-broken backend is auto-failed.
//   - One that is already failed — a disk mid-rebuild that missed a write
//     below its watermark, so its rebuilt copy of that stripe is now
//     stale — has its watermark pulled back, so reads fail over to the
//     copies that did take the write and the rebuild re-recovers
//     everything from there. Only ever lowering the watermark is what
//     keeps this safe against a slice publishing concurrently: the slice
//     is re-run, never skipped.
//   - A share cut off by the caller's cancellation only ever pulls a
//     watermark back: cancellation says nothing about the backend's
//     health.
//
// It returns the slots it auto-failed, for the caller to announce once
// it holds no lock.
func (v *Volume) settleWrites(pl *opPlan) (failed []int) {
	if len(pl.broken) == 0 {
		return nil
	}
	v.update(func(next *volState) error {
		for _, br := range pl.broken {
			s := &next.slots[br.slot]
			switch {
			case s.be != pl.st.slots[br.slot].be:
			case s.failed:
				s.progress = min(s.progress, br.stripe)
			case !br.cancelled:
				s.failed, s.progress = true, 0
				failed = append(failed, br.slot)
			}
		}
		return nil
	})
	return failed
}

// errVolumeClosed is returned by management operations on a closed
// volume.
var errVolumeClosed = errors.New("cluster: volume is closed")
