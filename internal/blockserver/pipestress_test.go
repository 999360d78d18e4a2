package blockserver

import (
	"context"
	"flag"
	"sync/atomic"
	"testing"
	"time"
)

// pipeStress is how long TestPipelineNoLostCompletion keeps its closed
// loop running; the nightly run passes -pipestress 60s.
var pipeStress = flag.Duration("pipestress", 10*time.Second, "duration of TestPipelineNoLostCompletion's closed loop")

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
	ops := make([]atomic.Int64, 2)
	var stop atomic.Bool
	exited := make(chan error, len(ops))
	for c := range ops {
		go func(c int) {
			buf := make([]byte, blk)
			vecs := []Vec{{Off: int64(c) * blk, Len: blk}}
			dst := [][]byte{buf}
			for i := c; !stop.Load(); i++ {
				if err := conns[i%len(conns)].ReadVCtx(context.Background(), vecs, dst); err != nil {
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
				t.Fatalf("caller %d: op %d has not come back in %v on a healthy connection: its completion was lost", c, n+1, stall)
			}
		}
		select {
		case err := <-exited:
			t.Fatalf("a caller stopped early: %v", err)
		default:
		}
	}
	stop.Store(true)
	for range ops {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(stall):
			t.Fatal("a caller did not come back after the stop: its completion was lost")
		}
	}
	t.Logf("%d ops, none lost", ops[0].Load()+ops[1].Load())
}
