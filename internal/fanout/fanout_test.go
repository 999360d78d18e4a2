package fanout

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// settle polls cond, collecting garbage between tries, until it holds
// or the deadline passes; it reports whether cond held.
func settle(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// parkedAtLeast waits until at least k workers are parked.
func parkedAtLeast[J any](t *testing.T, w *Workers[J], k int64) {
	t.Helper()
	if !settle(func() bool { return w.idle.Load() >= k }) {
		t.Fatalf("%d workers parked, want %d", w.idle.Load(), k)
	}
}

// TestGoNeverBlocks: with every parked worker held by a job that has not
// returned, Go still returns at once — the job goes to a new worker — so
// a share never waits behind another op's, however slow. A blocking send
// in Go fails this: no worker is free to take it.
func TestGoNeverBlocks(t *testing.T) {
	const max = 2
	gate := make(chan struct{})
	var started sync.WaitGroup
	w := New(max, func(hold bool) {
		if hold {
			started.Done()
			<-gate
		}
	})
	defer w.Close()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		// Park max workers, then hold each of them and more.
		for i := 0; i < max; i++ {
			w.Go(false)
		}
		settle(func() bool { return w.idle.Load() > 0 })
		for i := 0; i < 2*max; i++ {
			started.Add(1)
			w.Go(true)
		}
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("Go blocked while every worker was busy")
	}
	started.Wait()
	close(gate)
}

// TestParkedWorkersCapped: a burst of 3 × max concurrent jobs runs on
// 3 × max workers, and once it is over at most max of them stay parked.
func TestParkedWorkersCapped(t *testing.T) {
	const max = 4
	base := runtime.NumGoroutine()
	gate := make(chan struct{})
	var started sync.WaitGroup
	w := New(max, func(struct{}) {
		started.Done()
		<-gate
	})
	defer w.Close()
	started.Add(3 * max)
	for i := 0; i < 3*max; i++ {
		w.Go(struct{}{})
	}
	started.Wait() // all 3 × max are blocked at once
	close(gate)
	if !settle(func() bool { return runtime.NumGoroutine()-base <= max }) {
		t.Fatalf("%d goroutines left after the burst, cap %d", runtime.NumGoroutine()-base, max)
	}
	if idle := w.idle.Load(); idle > max {
		t.Fatalf("%d workers parked, cap %d", idle, max)
	}
}

// payload is a job's referent, watched by a finalizer.
type payload struct{ buf [64]byte }

// TestParkedWorkerPinsNothing: a worker parked after a job holds no
// reference to it, so the job's payload is collected.
func TestParkedWorkerPinsNothing(t *testing.T) {
	done := make(chan struct{}, 1)
	w := New(1, func(p *payload) {
		p.buf[0]++
		done <- struct{}{}
	})
	defer w.Close()
	collected := make(chan struct{})
	p := new(payload)
	runtime.SetFinalizer(p, func(*payload) { close(collected) })
	w.Go(p)
	p = nil
	<-done
	parkedAtLeast(t, w, 1)
	if !settle(func() bool {
		select {
		case <-collected:
			return true
		default:
			return false
		}
	}) {
		t.Fatal("the parked worker still pins its last job's payload")
	}
}

// TestCloseReleasesWorkers: Close lets every parked worker exit, and one
// still running its job exits when the job is done.
func TestCloseReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	gate := make(chan struct{})
	var started sync.WaitGroup
	w := New(8, func(hold bool) {
		if hold {
			started.Done()
			<-gate
		}
	})
	for i := 0; i < 8; i++ {
		w.Go(false)
	}
	parkedAtLeast(t, w, 1)
	started.Add(1)
	w.Go(true)
	started.Wait()
	w.Close()
	w.Close() // harmless
	close(gate)
	w.Go(false) // a job after Close still runs, and its worker exits
	if !settle(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines before, %d after Close", base, runtime.NumGoroutine())
	}
}

// TestHandOffAllocFree: handing a job to a parked worker allocates
// nothing — the job is a value, not a closure, and no goroutine starts.
func TestHandOffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	type job struct {
		p *payload
		n int
	}
	done := make(chan struct{}, 1)
	w := New(1, func(j job) {
		j.p.buf[j.n]++
		done <- struct{}{}
	})
	defer w.Close()
	p := new(payload)
	handOff := func() {
		w.Go(job{p: p, n: 1})
		<-done
		for w.idle.Load() == 0 {
			runtime.Gosched()
		}
	}
	handOff()
	if allocs := testing.AllocsPerRun(100, handOff); allocs != 0 {
		t.Fatalf("%.1f allocs per hand-off, want 0", allocs)
	}
}
