package blockserver

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// pipeStress is how long TestPipelineNoLostCompletion and
// TestSyncCancelStress keep their closed loops running; the nightly run
// passes -pipestress 60s.
var pipeStress = flag.Duration("pipestress", 10*time.Second, "duration of the closed-loop stress tests")

// closedLoop runs one goroutine per caller, each calling step back to
// back for -pipestress, and fails the test when step returns an error or
// a caller stops for 5 s: in a closed loop a caller that stops has lost
// an op. It returns how many ops came back.
func closedLoop(t *testing.T, callers int, step func(caller int) error) int64 {
	ops := make([]atomic.Int64, callers)
	var stop atomic.Bool
	exited := make(chan error, callers)
	for c := range ops {
		go func(c int) {
			for !stop.Load() {
				if err := step(c); err != nil {
					exited <- err
					return
				}
				ops[c].Add(1)
			}
			exited <- nil
		}(c)
	}
	const stall = 5 * time.Second
	last := make([]int64, len(ops))
	moved := make([]time.Time, len(ops))
	for c := range moved {
		moved[c] = time.Now()
	}
	for end := time.Now().Add(*pipeStress); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		for c := range ops {
			if n := ops[c].Load(); n != last[c] {
				last[c], moved[c] = n, time.Now()
			} else if time.Since(moved[c]) > stall {
				t.Fatalf("caller %d: op %d has not come back in %v on a healthy connection: it was lost", c, n+1, stall)
			}
		}
		select {
		case err := <-exited:
			t.Fatalf("a caller stopped early: %v", err)
		default:
		}
	}
	stop.Store(true)
	var total int64
	for c := range ops {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(stall):
			t.Fatal("a caller did not come back after the stop: its op was lost")
		}
		total += ops[c].Load()
	}
	return total
}

// TestPipelineNoLostCompletion is the repository benchmark's small-op
// shape held for longer than any other test holds it: two closed-loop
// callers issue 4 KiB gathers round-robin over two pipelined
// connections (a pool's PoolSize = 2), so batches are one frame deep
// and a response regularly beats the writer's return from its writev.
// Every op must come back: in a closed loop a caller that stops has
// lost a completion, and a watchdog fails the test when one stops for
// 5 s.
func TestPipelineNoLostCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop stress: runs for -pipestress (10s by default)")
	}
	const blk = 4096
	addr, _ := startCRCServer(t, 64*blk, 0, true)
	conns := []*Client{dialPipe(t, addr, 0, Config{}), dialPipe(t, addr, 0, Config{})}
	var vecs [2][]Vec
	var dst [2][][]byte
	var next [2]int
	for c := range vecs {
		vecs[c] = []Vec{{Off: int64(c) * blk, Len: blk}}
		dst[c] = [][]byte{make([]byte, blk)}
		next[c] = c
	}
	ops := closedLoop(t, len(vecs), func(c int) error {
		next[c]++
		return conns[next[c]%len(conns)].ReadVCtx(context.Background(), vecs[c], dst[c])
	})
	t.Logf("%d ops, none lost", ops)
}

// TestSyncCancelStress holds the synchronous client's cancellation to
// its contract under churn: two closed-loop callers, each on its own
// synchronous connection, issue 4 KiB gathers under a context shared by
// both, which a third goroutine cancels and replaces every few hundred
// microseconds, or under a per-call context of their own, cancelled
// before, during or after the exchange. A connection keeps one cancel
// callback, for the context it last served, so every exchange here runs
// beside callbacks of contexts it does not belong to. An exchange whose
// context is still live must succeed; one whose context was cancelled
// may fail, and when it poisoned its connection the caller dials a new
// one. Every op must come back, under a 5 s watchdog.
func TestSyncCancelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop stress: runs for -pipestress (10s by default)")
	}
	const blk = 4096
	addr, _ := startStoreServer(t, 64*blk)
	type shared struct {
		ctx    context.Context
		cancel context.CancelFunc
	}
	var cur atomic.Pointer[shared]
	renew := func() *shared {
		ctx, cancel := context.WithCancel(context.Background())
		return cur.Swap(&shared{ctx, cancel})
	}
	renew()
	done := make(chan struct{})
	replaced := make(chan int)
	go func() {
		n := 0
		defer func() { replaced <- n }()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-done:
				cur.Load().cancel()
				return
			case <-time.After(time.Duration(rng.Intn(500)) * time.Microsecond):
				renew().cancel()
				n++
			}
		}
	}()
	var conns [2]*Client
	var rngs [2]*rand.Rand
	var vecs [2][]Vec
	var dst [2][][]byte
	for c := range conns {
		var err error
		if conns[c], err = Dial(addr); err != nil {
			t.Fatal(err)
		}
		rngs[c] = rand.New(rand.NewSource(int64(c) + 2))
		vecs[c] = []Vec{{Off: int64(c) * blk, Len: blk}}
		dst[c] = [][]byte{make([]byte, blk)}
	}
	var redials atomic.Int64
	ops := closedLoop(t, len(conns), func(c int) error {
		rng := rngs[c]
		ctx, under := cur.Load().ctx, "the shared context"
		if rng.Intn(3) == 0 {
			call, cancel := context.WithCancel(context.Background())
			defer cancel()
			switch rng.Intn(4) {
			case 0:
				go cancel()
			case 1:
				cancel()
			}
			ctx, under = call, "a per-call context"
		}
		err := conns[c].ReadVCtx(ctx, vecs[c], dst[c])
		switch {
		case err == nil:
		case ctx.Err() == nil:
			return fmt.Errorf("caller %d: an exchange under %s failed while it was live: %w", c, under, err)
		case conns[c].Broken() != nil:
			conns[c].Close()
			redials.Add(1)
			if conns[c], err = Dial(addr); err != nil {
				return err
			}
		}
		return nil
	})
	close(done)
	t.Logf("%d ops, none lost; the shared context replaced %d times, %d connections poisoned by a cancel", ops, <-replaced, redials.Load())
	for _, c := range conns {
		c.Close()
	}
}
