package cluster

import (
	"context"
	"fmt"
	"time"

	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// RebuildDisk reconstructs a failed disk's contents onto its (fresh)
// backend and returns the disk to service — the paper's one-access
// reconstruction over TCP. Each stripe slice is recovered in one pass:
// the lost elements' replicas are gathered with per-backend OpReadV
// batches running concurrently, then written to the replacement backend
// through its pool. Under the shifted arrangement a data disk's n
// replicas-per-stripe live on n distinct mirror backends, so the fetch
// is one parallel access across the whole cluster; under the
// traditional arrangement every replica lives on the single twin
// backend and the same loop drains it sequentially at one disk's
// bandwidth. The rebuild is incremental: the device lock is released
// between stripe slices so reads and writes keep flowing, and rebuilt
// stripes are served from the replacement backend immediately. Each
// slice starts at the current watermark, so when a write that missed the
// replacement backend rolls the watermark back (see WriteAt), the
// affected stripes are recovered again before the rebuild can finish.
// Only one rebuild may run per disk; a second concurrent call returns
// ErrRebuildInProgress (wrapped).
//
// Cancelling ctx stops the rebuild promptly — between slices, and
// mid-slice by interrupting the in-flight gathers and writes — and
// returns ctx's error. The watermark keeps whatever slices completed:
// a later RebuildDisk call resumes from there, and rebuilt stripes stay
// served from the replacement backend in the meantime.
func (v *Volume) RebuildDisk(ctx context.Context, id raid.DiskID) error {
	slot, ok := v.slot(id)
	if !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	v.mu.Lock()
	if !v.failed[slot] {
		v.mu.Unlock()
		return fmt.Errorf("cluster: disk %v is not failed", id)
	}
	if v.rebuilding[slot] {
		v.mu.Unlock()
		return fmt.Errorf("%w: disk %v", ErrRebuildInProgress, id)
	}
	// Trying to rebuild onto the current backend is what makes it the
	// replacement: an attempt that fails leaves the disk
	// replacement-pending at the watermark it reached, not dead.
	v.rebuilding[slot], v.replacement[slot] = true, true
	v.mu.Unlock()
	v.stats.rebuildActive.Add(1)
	defer func() {
		v.stats.rebuildActive.Add(-1)
		v.mu.Lock()
		v.rebuilding[slot] = false
		v.mu.Unlock()
	}()
	// One plan and one slice buffer serve every slice of this rebuild.
	pl := v.getPlan()
	defer v.putPlan(pl)
	buf := make([]byte, int64(v.cfg.RebuildBatch)*int64(v.n)*v.elementSize)
	start := time.Now()
	var rebuilt int64
	for {
		if err := ctx.Err(); err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		// QoS throttle: pay for the next slice in stripes before taking
		// the exclusive lock, so a throttled rebuild parks here with user
		// I/O flowing, never inside the slice.
		if err := v.qos.acquire(ctx, v.nextSliceStripes(slot)); err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		done, n, err := v.rebuildSlice(ctx, slot, pl, buf)
		rebuilt += n
		if err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
		if done {
			break
		}
	}
	elapsed := time.Since(start)
	v.stats.rebuilds.Inc()
	v.stats.rebuildBytes.Add(rebuilt)
	v.stats.rebuildNanos.Add(elapsed.Nanoseconds())
	v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: elapsed})
	return nil
}

// rebuildSlice recovers the next RebuildBatch stripes past the watermark
// under the exclusive lock: fetch every lost element from surviving
// replicas (fanning out per backend, with failover) into buf, then write
// the recovered bytes to the replacement backend. The watermark only
// advances once the writes are durable there, and the final slice
// returns the disk to service under the same lock hold — so a failed
// user write can never slip between "last stripe recovered" and "disk
// marked clean". pl and buf (RebuildBatch stripes of one disk) are the
// rebuild's own, reused slice after slice.
func (v *Volume) rebuildSlice(ctx context.Context, slot int, pl *opPlan, buf []byte) (done bool, written int64, err error) {
	start := time.Now()
	defer func() { v.stats.sliceLat.Observe(time.Since(start)) }()
	id := v.ids[slot]
	pl.reset()
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.failed[slot] {
		return false, 0, fmt.Errorf("cluster: disk %v is not failed", id)
	}
	s0 := v.progress[slot]
	s1 := min(s0+v.cfg.RebuildBatch, v.stripes)
	count := (s1 - s0) * v.n // lost elements: n per stripe on one disk
	buf = buf[:int64(count)*v.elementSize]
	for i := 0; i < count; i++ {
		stripe, r := s0+i/v.n, i%v.n
		// The content of target slot (slot, row r) is whatever logical
		// element the placement stores there in this stripe. fetchSpans
		// routes to surviving copies only (the target disk is failed, so
		// it is never a source).
		a := v.table.owner(stripe, slot, r)
		pl.spans = append(pl.spans, span{
			stripe: stripe, disk: a.Disk, row: a.Row,
			buf: buf[int64(i)*v.elementSize : int64(i+1)*v.elementSize],
		})
	}
	if err := v.fetchSpans(ctx, pl, fetchRebuild); err != nil {
		return false, 0, err
	}
	b := pl.backend(slot)
	for i := range pl.spans {
		stripe, r := s0+i/v.n, i%v.n
		b.ops = append(b.ops, writeOp{
			off: v.storeOffset(stripe, r), data: pl.spans[i].buf, elem: int32(i), stripe: int32(stripe),
		})
	}
	if err := v.runWrites(ctx, pl, count); err != nil {
		return false, 0, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled mid-slice: the watermark stays put, so this slice is
		// recovered again when the rebuild resumes.
		return false, 0, cerr
	}
	if len(pl.broken) > 0 {
		return false, 0, fmt.Errorf("cluster: replacement backend %s for %v not accepting writes", v.addrs[slot], id)
	}
	v.progress[slot] = s1
	v.stats.rebuildStripes.Add(int64(s1 - s0))
	v.trace(obs.Event{Op: "rebuild_slice", Target: id.String(), Bytes: int64(len(buf)), Dur: time.Since(start)})
	if s1 >= v.stripes {
		v.failed[slot], v.replacement[slot] = false, false
		v.progress[slot] = 0
		return true, int64(len(buf)), nil
	}
	return false, int64(len(buf)), nil
}

// nextSliceStripes returns how many stripes the next rebuild slice for
// the disk in slot will recover — the QoS cost paid before taking the
// exclusive lock.
func (v *Volume) nextSliceStripes(slot int) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if !v.failed[slot] {
		return 0
	}
	return max(0, min(v.stripes-v.progress[slot], v.cfg.RebuildBatch))
}
