package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// RebuildDisk reconstructs a failed disk's contents onto its (fresh)
// backend and returns the disk to service — the paper's one-access
// reconstruction over TCP. Each stripe slice is recovered in one pass:
// the lost elements' replicas are gathered with per-backend OpReadV
// batches running concurrently, then written to the replacement backend.
// An element with no readable copy comes back as the XOR of its row
// (mirror-with-parity), and the parity disk's own slices are the XOR of
// each row's data (gatherParity). Under the shifted arrangement a data
// disk's n replicas-per-stripe live on n distinct mirror backends, so
// the fetch is one parallel access across the whole cluster; under the
// traditional arrangement every replica lives on the single twin backend
// and the same loop drains it sequentially at one disk's bandwidth. The
// rebuild runs beside user I/O, not in turns with it: a slice holds no
// lock a read takes, and fences only the writes that touch the
// rebuilding disk's copies in the slice's own stripes (see gatherSlice).
// Rebuilt stripes are served from the replacement backend as soon as
// their slice publishes the watermark.
//
// The slices run as a two-stage pipeline: while slice k is written to
// the replacement, slice k+1 is already being gathered into a second
// buffer, so the sources never sit idle through a write-back. Slices
// publish in order, each only on top of the one before it; when a write
// that missed the replacement backend rolls the watermark back (see
// settleWrites), or ReplaceBackend swaps the replacement, the slices in
// flight are discarded and the pipeline restarts from the watermark it
// finds — the affected stripes are recovered again before the rebuild
// can finish. Only one rebuild may run per disk; a second concurrent
// call returns ErrRebuildInProgress (wrapped).
//
// Cancelling ctx stops the rebuild promptly — between slices, and
// mid-slice by interrupting the in-flight gathers and writes — and
// returns ctx's error. The watermark keeps whatever slices were
// published: a later RebuildDisk call resumes from there, and rebuilt
// stripes stay served from the replacement backend in the meantime.
func (v *Volume) RebuildDisk(ctx context.Context, id raid.DiskID) error {
	slot, ok := v.slot(id)
	if !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	err := v.update(func(next *volState) error {
		s := &next.slots[slot]
		switch {
		case next.closed:
			return errVolumeClosed
		case !s.failed:
			return fmt.Errorf("cluster: disk %v is not failed", id)
		case s.rebuilding:
			return fmt.Errorf("%w: disk %v", ErrRebuildInProgress, id)
		}
		// Trying to rebuild onto the current backend is what makes it the
		// replacement: an attempt that fails leaves the disk
		// replacement-pending at the watermark it reached, not dead.
		s.rebuilding, s.replacement = true, true
		return nil
	})
	if err != nil {
		return err
	}
	v.stats.rebuildActive.Add(1)
	defer func() {
		v.stats.rebuildActive.Add(-1)
		v.updateSlot(slot, func(s *slotState) error {
			s.rebuilding = false
			return nil
		})
	}()
	// Two plans and two slice buffers serve every slice of this rebuild:
	// one being gathered into, one being written back from.
	var jobs [2]sliceJob
	for i := range jobs {
		jobs[i].pl = v.getPlan()
		defer v.putPlan(jobs[i].pl)
		jobs[i].buf = make([]byte, int64(v.cfg.RebuildBatch)*int64(v.n)*v.elementSize)
	}
	start := time.Now()
	var rebuilt int64
	for restart := true; restart; {
		if restart, err = v.pipelineSlices(ctx, slot, &jobs, &rebuilt); err != nil {
			v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: time.Since(start), Err: err})
			return err
		}
	}
	elapsed := time.Since(start)
	v.stats.rebuilds.Inc()
	v.stats.rebuildBytes.Add(rebuilt)
	v.stats.rebuildNanos.Add(elapsed.Nanoseconds())
	v.trace(obs.Event{Op: "rebuild", Target: id.String(), Bytes: rebuilt, Dur: elapsed})
	return nil
}

// pipelineSlices runs the slice pipeline from the slot's watermark until
// the disk is back in service or a slice does not land; then the slices
// in flight are discarded, and restart tells the caller to start over
// from the watermark it finds. rebuilt accumulates the bytes of the
// slices published. The gathers of one pass run under one context,
// cancelled only to void the gather behind a slice that did not land: a
// connection keeps its cancel callback for a context that serves it
// exchange after exchange, where a context per slice would cost each
// source connection a registration per slice.
func (v *Volume) pipelineSlices(ctx context.Context, slot int, jobs *[2]sliceJob, rebuilt *int64) (restart bool, err error) {
	gctx, stop := context.WithCancel(ctx)
	defer stop()
	var ready *sliceJob // gathered, waiting to be written back
	from := -1          // where the next gather starts; -1: at the watermark
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			v.endSlice(ready)
			return false, err
		}
		// Gather the next slice beside the write-back of the ready one.
		next := &jobs[i%2]
		gathered := make(chan error, 1)
		go func(from int) { gathered <- v.gatherSlice(gctx, slot, from, next) }(from)
		published, done, werr := true, false, error(nil)
		if ready != nil {
			published, done, werr = v.writeBackSlice(ctx, slot, ready)
			if werr != nil || !published {
				stop() // what was gathered behind a slice that did not land is void
			}
		}
		gerr := <-gathered
		switch {
		case werr != nil:
			v.endSlice(next)
			return false, werr
		case !published:
			v.endSlice(next)
			return true, nil
		}
		if ready != nil {
			*rebuilt += int64(ready.elems) * v.elementSize
		}
		if done {
			return false, nil
		}
		if gerr != nil {
			return false, gerr
		}
		ready, from = next, next.win.s1
	}
}

// sliceJob is one rebuild slice on its way through the pipeline: its
// plan and buffer (RebuildBatch stripes of one disk, the rebuild's own,
// reused slice after slice; rows holds the row data a parity slice is
// folded from) and, from gatherSlice on, the window it published and the
// elements it covers, the state that publication produced — whose
// backend for the slot is where the slice will be written — and when it
// began.
type sliceJob struct {
	pl        *opPlan
	buf, rows []byte
	win       *window // nil: no slice in the job
	elems     int
	opened    *volState
	start     time.Time
}

// gatherSlice opens the slice of up to RebuildBatch stripes starting at
// from (at the watermark when from < 0) and fetches every lost element
// in it from surviving replicas (fanning out per backend, with failover)
// into the job's buffer; nothing past the last stripe is no slice and
// no error. Its window [s0, s1) on the slot opens through openWindow:
// from then on a write with a copy on the slot inside it waits for the
// slice (WriteAtCtx), any other write goes ahead, and the gather cannot
// miss the bytes of one planned before. It holds no lock across the
// fetch, and nothing a read ever takes; writeBackSlice writes back and
// publishes.
//
// On error the slice is ended here; a gathered slice stays open until
// writeBackSlice (or endSlice) ends it.
func (v *Volume) gatherSlice(ctx context.Context, slot, from int, job *sliceJob) error {
	job.win = nil
	if from >= v.stripes {
		return nil
	}
	s0 := from
	if from < 0 {
		s0 = v.state.Load().slots[slot].progress
	}
	win := &window{slot: slot}
	opened, err := v.openWindow(ctx, min(v.stripes-s0, v.cfg.RebuildBatch), win, func(next *volState) error {
		s := &next.slots[slot]
		if !s.failed {
			return fmt.Errorf("cluster: disk %v is not failed", v.ids[slot])
		}
		if from < 0 {
			s0 = s.progress
		}
		win.s0, win.s1 = s0, min(s0+v.cfg.RebuildBatch, v.stripes)
		job.start = time.Now()
		return nil
	})
	if err != nil {
		return err
	}
	job.win, job.opened = win, opened
	pl := job.pl
	pl.reset()
	job.elems = (win.s1 - win.s0) * v.n // lost elements: n per stripe on one disk
	if slot == v.parity {
		err = v.gatherParity(ctx, job)
	} else {
		for i := 0; i < job.elems; i++ {
			stripe, r := win.s0+i/v.n, i%v.n
			// The content of target slot (slot, row r) is whatever logical
			// element the placement stores there in this stripe. fetchSpans
			// routes to surviving copies only (the target disk is failed and
			// its watermark is at or below the window, so it is never a
			// source).
			a := v.table.owner(stripe, slot, r)
			pl.spans = append(pl.spans, span{
				stripe: stripe, disk: a.Disk, row: a.Row,
				buf: job.buf[int64(i)*v.elementSize : int64(i+1)*v.elementSize],
			})
		}
		err = v.fetchSpans(ctx, pl, fetchRebuild)
	}
	if err != nil {
		v.endSlice(job)
	}
	return err
}

// writeBackSlice writes a gathered slice to the replacement backend —
// the pool the slot had when the slice's window opened, whatever has
// happened since — and publishes progress = s1, or, for the last slice,
// returns the disk to service in the same swap (done). It publishes only
// if the slot still has the pool that was written to, is still failed,
// and its watermark still reads s0: a roll-back or a ReplaceBackend that
// landed since the window opened makes the slice's bytes stale or
// misplaced, and so does the slice before it not having been published.
// Such a slice is discarded — published=false, no error — and the
// caller starts over from the watermark it finds.
//
// The last slice publishes under the write drain, held exclusively:
// every write planned while the disk was failed has then settled (see
// settleWrites), so none can find, too late to roll anything back, that
// it missed a disk already declared whole. The slice is ended on every
// path.
func (v *Volume) writeBackSlice(ctx context.Context, slot int, job *sliceJob) (published, done bool, err error) {
	defer v.endSlice(job)
	id, pl, win := v.ids[slot], job.pl, job.win
	pl.st = job.opened
	target := job.opened.slots[slot].be
	b := pl.backend(slot)
	for i := 0; i < job.elems; i++ {
		stripe, r := win.s0+i/v.n, i%v.n
		b.ops = append(b.ops, writeOp{
			off:  v.storeOffset(stripe, r),
			data: job.buf[int64(i)*v.elementSize : int64(i+1)*v.elementSize], elem: int32(i), stripe: int32(stripe),
		})
	}
	if err := v.runWrites(ctx, pl, job.elems); err != nil {
		return false, false, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled mid-slice: the watermark stays put, so this slice is
		// recovered again when the rebuild resumes.
		return false, false, cerr
	}
	if len(pl.broken) > 0 && v.state.Load().slots[slot].be == target {
		return false, false, fmt.Errorf("cluster: replacement backend %s for %v not accepting writes", target.address(), id)
	}
	last := win.s1 >= v.stripes
	if last {
		v.eachDrain(allDrains, (*sync.RWMutex).Lock)
	}
	err = v.update(func(next *volState) error {
		s := &next.slots[slot]
		if len(pl.broken) > 0 || s.be != target || !s.failed || s.progress != win.s0 {
			return errSliceDiscarded
		}
		s.progress = win.s1
		if last {
			s.failed, s.replacement, s.progress = false, false, 0
		}
		// The window comes down in the swap that makes its stripes available.
		next.wins = dropWindow(next.wins, win)
		return nil
	})
	if last {
		v.eachDrain(allDrains, (*sync.RWMutex).Unlock)
	}
	if err != nil {
		return false, false, nil
	}
	v.stats.rebuildStripes.Add(int64(win.s1 - win.s0))
	bytes := int64(job.elems) * v.elementSize
	v.trace(obs.Event{Op: "rebuild_slice", Target: id.String(), Bytes: bytes, Dur: time.Since(job.start)})
	return true, last, nil
}

// endSlice ends the job's slice, however it ended: its window comes down
// (endWindow) and its wall time is observed. A job with no slice in it is
// left alone.
func (v *Volume) endSlice(job *sliceJob) {
	if job == nil || job.win == nil {
		return
	}
	v.endWindow(job.win)
	v.stats.sliceLat.Observe(time.Since(job.start))
	job.win = nil
}

// errSliceDiscarded is why a slice's publish edit declines; it never
// leaves writeBackSlice.
var errSliceDiscarded = errors.New("cluster: rebuild slice discarded")
