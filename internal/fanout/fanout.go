// Package fanout runs the concurrent legs of a fan-out on parked worker
// goroutines instead of starting a goroutine per leg.
//
// A goroutine started for one leg of a fan-out costs the closure it
// starts from, and it grows its starting stack again on the way down to
// the syscall, because the runtime frees a grown stack when its goroutine
// exits. A worker that parks after its job keeps its stack and takes the
// next job through a channel, so a hand-off to a parked worker allocates
// nothing and grows nothing.
//
// The hand-off never waits: Go offers the job to a parked worker and,
// when none is parked, starts a new one. A job therefore never queues
// behind another, however long that one runs. At most max workers stay
// parked; one that finishes while max are parked exits.
package fanout

import "sync/atomic"

// Workers runs jobs of type J on parked goroutines. J is a small value
// naming the work (not a closure), so handing it over allocates nothing.
// All methods are safe for concurrent use.
type Workers[J any] struct {
	run    func(J)
	jobs   chan J // unbuffered: a send succeeds only into a parked worker's hands
	quit   chan struct{}
	max    int64
	idle   atomic.Int64 // workers parked, or about to park, on jobs
	closed atomic.Bool
}

// New returns a worker set that runs each job with run and keeps at most
// limit workers parked between jobs.
func New[J any](limit int, run func(J)) *Workers[J] {
	return &Workers[J]{
		run:  run,
		jobs: make(chan J),
		quit: make(chan struct{}),
		max:  int64(limit),
	}
}

// Go runs j on a parked worker, or on a new goroutine if none is parked.
// It never blocks. After Close a job still runs, on a worker that exits
// when the job is done.
func (w *Workers[J]) Go(j J) {
	select {
	case w.jobs <- j:
	default:
		go w.work(j)
	}
}

// work runs j, then parks for the next job until Close, or exits at once
// if max workers are already parked. The job is zeroed before parking, so
// a parked worker pins nothing the job referred to.
func (w *Workers[J]) work(j J) {
	for {
		w.run(j)
		var zero J
		j = zero
		if w.idle.Add(1) > w.max {
			w.idle.Add(-1)
			return
		}
		select {
		case j = <-w.jobs:
			w.idle.Add(-1)
		case <-w.quit:
			w.idle.Add(-1)
			return
		}
	}
}

// Close releases the parked workers; a worker running a job exits when
// the job is done. Close does not wait for either: the owner's Close
// does not wait for its operations in flight, and a job may be one of
// them. Calling Close again is harmless.
func (w *Workers[J]) Close() {
	if w.closed.CompareAndSwap(false, true) {
		close(w.quit)
	}
}
