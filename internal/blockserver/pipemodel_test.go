package blockserver

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

var pipeSeed = flag.Int64("pipeseed", 0, "run TestPipeLifecycleModel on this one seed (0: the built-in seeds)")

// slowStore answers some reads late, so a connection's responses come
// back out of order and cancellations land on every point of a call's
// life. It hides Slice, which puts reads on the path that calls ReadAt.
type slowStore struct {
	Store
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *slowStore) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	var d time.Duration
	if s.rng.Intn(5) < 2 {
		d = time.Duration(s.rng.Intn(1000)) * time.Microsecond
	}
	s.mu.Unlock()
	time.Sleep(d)
	return s.Store.ReadAt(p, off)
}

// cutRelay relays one connection to backend and, when cutAt >= 0, closes
// both sides after exactly cutAt response bytes: a tear in the middle of
// a response. wait joins its goroutines once both ends are closed.
func cutRelay(t *testing.T, backend string, cutAt int64) (addr string, wait func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", backend)
		if err != nil {
			c.Close()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(s, c)
			s.Close()
			c.Close()
		}()
		if cutAt >= 0 {
			io.CopyN(c, s, cutAt)
		} else {
			io.Copy(c, s)
		}
		c.Close()
		s.Close()
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// TestPipeLifecycleModel searches the pipelined client's call lifecycle
// for the defects a cancellation or a tear can expose. Each round is one
// connection to a real pipelined server with write checksums, behind a
// store that answers late and a relay that may cut the stream in the
// middle of a response; six callers share a four-deep window and issue
// reads and checksummed writes, many of them cancelled after a random
// delay. Every op must return nil, its own context's error or — once
// the connection is torn — a transport error; a read that succeeds
// holds the right bytes; a cancelled reader fills its buffer with a
// sentinel after returning and finds it intact when the connection is
// gone; a cancelled or failed writer scribbles over its payload after
// returning and the server never sees a checksum mismatch (a frame sent
// from memory the caller owns again would produce one); an
// acknowledged write is in the store; at rest the window is empty and
// the in-flight gauge reads zero; Close joins both goroutines. Replay
// one seed with -pipeseed.
func TestPipeLifecycleModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if *pipeSeed != 0 {
		seeds = []int64{*pipeSeed}
	}
	for _, seed := range seeds {
		for round := 0; round < 6 && !t.Failed(); round++ {
			pipeModelRound(t, seed, round)
		}
	}
}

func pipeModelRound(t *testing.T, seed int64, round int) {
	const (
		blk       = 4096
		static    = 8 // blocks only ever read
		callers   = 6 // each also owns one block it writes
		opsEach   = 30
		window    = 4
		sentinel  = 0xA5
		watchdog  = 60 * time.Second
		cutChance = 3 // one round in three is torn
	)
	rng := rand.New(rand.NewSource(seed<<8 + int64(round)))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d round %d: "+format, append([]any{seed, round}, args...)...)
	}

	mem := dev.NewMemStore((static + callers) * blk)
	image := make([]byte, static*blk)
	rng.Read(image)
	mem.WriteAt(image, 0)
	metrics := NewMetrics()
	srv := NewStoreServer(&slowStore{Store: mem, rng: rand.New(rand.NewSource(rng.Int63()))},
		WithCRC(blk), WithMetrics(metrics))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cutAt := int64(-1)
	if rng.Intn(cutChance) == 0 {
		cutAt = 6 + rng.Int63n(callers*opsEach*blk/4) // 6: the negotiation's answer
	}
	relay, relayWait := cutRelay(t, addr.String(), cutAt)
	stats := NewPipeStats()
	client, err := DialConfig(relay, Config{Features: FeaturePipeline | FeatureCRC, PipeWindow: window, PipeStats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if !client.HasPipeline() || !client.HasCRC() {
		t.Fatal("server did not grant FeaturePipeline and FeatureCRC")
	}

	// verdict checks an op's error against what its caller may see and
	// reports whether the connection is gone.
	verdict := func(ctx context.Context, what string, err error) (torn bool) {
		switch {
		case IsCRC(err):
			fail("%s: checksum mismatch: %v", what, err)
		case IsRemote(err):
			fail("%s: remote error: %v", what, err)
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		case client.Broken() != nil:
			return true
		default:
			fail("%s returned %v on a healthy connection with its context live", what, err)
		}
		return false
	}

	var wg sync.WaitGroup
	kept := make([][][]byte, callers) // cancelled readers' buffers, sentinel-filled
	acked := make([][]byte, callers)  // the block's content when its last write was acknowledged
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int, rng *rand.Rand) {
			defer wg.Done()
			slot := int64(static+c) * blk
			for i := 0; i < opsEach; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(5) < 2 {
					ctx, cancel = context.WithCancel(ctx)
					if d := time.Duration(rng.Intn(1500)) * time.Microsecond; d < 100*time.Microsecond {
						cancel() // cancelled before it starts
					} else {
						time.AfterFunc(d, cancel)
					}
				}
				if rng.Intn(2) == 0 {
					off := int64(rng.Intn(static)) * blk
					dst := make([]byte, blk)
					err := client.ReadVCtx(ctx, []Vec{{Off: off, Len: blk}}, [][]byte{dst})
					if err == nil {
						if !bytes.Equal(dst, image[off:off+blk]) {
							fail("caller %d op %d: read of block %d returned wrong bytes", c, i, off/blk)
						}
					} else {
						for j := range dst {
							dst[j] = sentinel
						}
						kept[c] = append(kept[c], dst)
						if verdict(ctx, "read", err) {
							cancel()
							return
						}
					}
				} else {
					payload := make([]byte, blk)
					rng.Read(payload)
					_, err := client.WriteVCtx(ctx, []Vec{{Off: slot, Len: blk}}, [][]byte{payload})
					if err == nil {
						acked[c] = payload
					} else {
						acked[c] = nil
						for j := range payload {
							payload[j] ^= 0xFF
						}
						if verdict(ctx, "write", err) {
							cancel()
							return
						}
					}
				}
				cancel()
			}
		}(c, rand.New(rand.NewSource(rng.Int63())))
	}
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(watchdog):
		t.Fatalf("seed %d round %d: an op has not returned in %v", seed, round, watchdog)
	}

	t.Logf("seed %d round %d: cut at %d, %d submitted, %d dropped in flight, torn: %v",
		seed, round, cutAt, stats.Submitted.Load(), stats.Abandoned.Load(), client.Broken() != nil)
	if n := len(client.pipe.window); n != 0 {
		fail("%d window tokens held at rest", n)
	}
	if n := stats.InFlight.Load(); n != 0 {
		fail("in-flight gauge reads %d at rest", n)
	}
	closed := make(chan struct{})
	go func() { client.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(watchdog):
		t.Fatalf("seed %d round %d: Close has not joined the pipe's goroutines in %v", seed, round, watchdog)
	}
	relayWait()
	srv.Close() // joins the connection's goroutines: the store is quiet

	for c := range kept {
		for _, dst := range kept[c] {
			if bytes.Count(dst, []byte{sentinel}) != len(dst) {
				fail("caller %d: a read's buffer was written after the read returned", c)
			}
		}
	}
	if n := metrics.Snapshot().CRCErrors; n != 0 {
		fail("the server rejected %d write ranges for a checksum mismatch: a frame was sent from a payload its caller had back", n)
	}
	got := make([]byte, blk)
	for c, want := range acked {
		if want == nil {
			continue
		}
		mem.ReadAt(got, int64(static+c)*blk)
		if !bytes.Equal(got, want) {
			fail("caller %d: the store does not hold its last acknowledged write", c)
		}
	}
}
