package blockserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// dialPipe dials addr with FeaturePipeline (plus extra feature flags)
// and fails the test if the pipelined mode was not granted.
func dialPipe(t *testing.T, addr string, extra byte, cfg Config) *Client {
	t.Helper()
	cfg.Features = FeaturePipeline | extra
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if !client.HasPipeline() {
		t.Fatal("server did not grant FeaturePipeline")
	}
	return client
}

// TestPipelineRoundTrip pins the basic exchange in pipelined mode, on
// both the zero-copy and the pooled server path: writes land, reads
// return them byte-identical, and the management opcodes still answer.
func TestPipelineRoundTrip(t *testing.T) {
	for _, direct := range []bool{true, false} {
		name := "direct"
		if !direct {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			const blk = 256
			addr, mem := startCRCServer(t, 64*blk, 0, direct)
			client := dialPipe(t, addr, 0, Config{})
			payload := make([]byte, 3*blk)
			rand.New(rand.NewSource(7)).Read(payload)
			if _, err := client.WriteAt(payload, 2*blk); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if _, err := client.ReadAt(got, 2*blk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("pipelined read returned different bytes than written")
			}
			size, err := client.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size != mem.Size() {
				t.Fatalf("remote size %d, local %d", size, mem.Size())
			}
			// Remote errors must not poison the pipelined connection.
			if _, err := client.ReadAt(got, mem.Size()); err == nil {
				t.Fatal("out-of-range read succeeded")
			} else if !IsRemote(err) {
				t.Fatalf("out-of-range read: got %v, want a remote error", err)
			}
			if _, err := client.ReadAt(got[:blk], 0); err != nil {
				t.Fatalf("connection unusable after a remote error: %v", err)
			}
			if err := client.Broken(); err != nil {
				t.Fatalf("Broken() = %v after clean exchanges", err)
			}
		})
	}
}

// TestPipelineOutOfOrderInterleaved is the out-of-order correctness
// pin: many goroutines interleave ReadV/WriteV/CrcV on one pipelined
// connection, each over a private region, and every result must be
// byte-identical to what the synchronous path returns. Run under -race
// this also shakes out demux/writer ownership races.
func TestPipelineOutOfOrderInterleaved(t *testing.T) {
	const (
		blk     = 512
		workers = 8
		rounds  = 40
	)
	addr, _ := startCRCServer(t, workers*4*blk, blk, true)
	piped := dialPipe(t, addr, FeatureCRC, Config{})
	syncCli := dialCRC(t, addr) // same server, synchronous connection
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w * 4 * blk) // private 4-block region per worker
			buf := make([]byte, 2*blk)
			got := make([]byte, 2*blk)
			crcs := make([]uint32, 2)
			for r := 0; r < rounds; r++ {
				rng.Read(buf)
				vecs := []Vec{{Off: base, Len: blk}, {Off: base + 2*blk, Len: blk}}
				data := [][]byte{buf[:blk], buf[blk:]}
				if _, err := piped.WriteV(vecs, data); err != nil {
					errCh <- err
					return
				}
				dst := [][]byte{got[:blk], got[blk:]}
				if err := piped.ReadV(vecs, dst); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errCh <- errors.New("pipelined ReadV returned different bytes than written")
					return
				}
				if err := piped.CrcV(context.Background(), vecs, crcs); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// The synchronous client must observe exactly the pipelined writes.
	for w := 0; w < workers; w++ {
		base := int64(w * 4 * blk)
		a := make([]byte, blk)
		b := make([]byte, blk)
		if err := syncCli.ReadV([]Vec{{Off: base, Len: blk}, {Off: base + 2*blk, Len: blk}}, [][]byte{a, b}); err != nil {
			t.Fatal(err)
		}
		pa := make([]byte, blk)
		pb := make([]byte, blk)
		if err := piped.ReadV([]Vec{{Off: base, Len: blk}, {Off: base + 2*blk, Len: blk}}, [][]byte{pa, pb}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, pa) || !bytes.Equal(b, pb) {
			t.Fatal("pipelined and synchronous reads disagree on the same server")
		}
	}
}

// gateStore blocks every ReadAt until the gate channel is closed (or
// fed), so tests can hold server-side reads in flight deterministically.
// Slice is hidden (the struct embeds only Store), forcing the pooled
// read path, which is the one that calls ReadAt.
type gateStore struct {
	Store
	gate    chan struct{}
	entered chan struct{} // one send per ReadAt that started blocking
}

func (g gateStore) ReadAt(p []byte, off int64) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Store.ReadAt(p, off)
}

// TestPipelineMidTear pins the teardown contract: when the connection
// dies with several tags in flight, every one of them fails with a
// transport error — none hang, none are silently lost.
func TestPipelineMidTear(t *testing.T) {
	const blk = 256
	mem := dev.NewMemStore(8 * blk)
	gate := gateStore{Store: mem, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	srv := NewStoreServer(gate)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer close(gate.gate) // unblock server workers so Close can join them
	t.Cleanup(func() { srv.Close() })
	client := dialPipe(t, addr.String(), 0, Config{})
	const inflight = 6
	errCh := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			buf := make([]byte, blk)
			_, err := client.ReadAt(buf, int64(i%8)*blk)
			errCh <- err
		}(i)
	}
	// Wait until the server is actually holding reads (the two read
	// workers have picked up tasks), then tear the transport.
	<-gate.entered
	<-gate.entered
	client.conn.Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("in-flight op reported success across a torn connection")
			}
			if IsRemote(err) || IsCRC(err) {
				t.Fatalf("tear surfaced as a per-op error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight op hung after the connection tear")
		}
	}
	if client.Broken() == nil {
		t.Fatal("Broken() = nil after a transport tear")
	}
}

// TestPipelineCancelOneTag pins per-request cancellation: cancelling
// one tag returns promptly without touching its siblings or poisoning
// the stream — the same connection keeps serving afterwards.
func TestPipelineCancelOneTag(t *testing.T) {
	const blk = 256
	mem := dev.NewMemStore(8 * blk)
	gate := gateStore{Store: mem, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	srv := NewStoreServer(gate)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := dialPipe(t, addr.String(), 0, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	sibling := make(chan error, 1)
	go func() {
		buf := make([]byte, blk)
		_, err := client.ReadAtCtx(ctx, buf, 0)
		cancelled <- err
	}()
	go func() {
		buf := make([]byte, blk)
		_, err := client.ReadAt(buf, blk)
		sibling <- err
	}()
	// Both reads are blocked inside the store; cancel exactly one.
	<-gate.entered
	<-gate.entered
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled op returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled op did not return promptly")
	}
	close(gate.gate)
	select {
	case err := <-sibling:
		if err != nil {
			t.Fatalf("sibling op failed after a neighbour's cancellation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sibling op hung after a neighbour's cancellation")
	}
	// The drained tag must not have desynchronized the stream.
	buf := make([]byte, blk)
	if _, err := client.ReadAt(buf, 0); err != nil {
		t.Fatalf("connection unusable after a cancelled tag: %v", err)
	}
	if err := client.Broken(); err != nil {
		t.Fatalf("Broken() = %v after a clean cancellation", err)
	}
}

// TestPipelineGoroutineLeak pins that a pipelined client's reader and
// writer goroutines (and the server's per-connection demux, workers,
// and response writer) all exit on Close.
func TestPipelineGoroutineLeak(t *testing.T) {
	const blk = 256
	addr, _ := startCRCServer(t, 8*blk, blk, true)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		client, err := DialConfig(addr, Config{Features: FeaturePipeline | FeatureCRC})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blk)
		if _, err := client.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := client.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		client.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge netpoll bookkeeping
		if n := runtime.NumGoroutine(); n <= before+1 || time.Now().After(deadline) {
			if n > before+1 {
				t.Fatalf("goroutines grew from %d to %d across pipelined dial/close cycles", before, n)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPipelineOldServerFallsBack is the negotiation-matrix leg for
// pipelining: a pre-negotiation server tears the probe connection, and
// the client silently falls back to the synchronous path — operations
// still work, HasPipeline reports false.
func TestPipelineOldServerFallsBack(t *testing.T) {
	const blk = 256
	mem := dev.NewMemStore(8 * blk)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	probes := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if probes++; probes == 1 {
				buf := make([]byte, 2)
				io.ReadFull(conn, buf)
				conn.Close() // old server: tear on the unknown opcode
				continue
			}
			// Plain redial: speak the pre-negotiation protocol.
			go func(conn net.Conn) {
				defer conn.Close()
				srv := NewStoreServer(mem)
				srv.serveConn(conn)
			}(conn)
		}
	}()
	client, err := DialConfig(ln.Addr().String(), Config{Features: FeaturePipeline})
	if err != nil {
		t.Fatalf("dial against an old server: %v", err)
	}
	defer client.Close()
	if client.HasPipeline() {
		t.Fatal("old server cannot have granted FeaturePipeline")
	}
	payload := make([]byte, blk)
	rand.New(rand.NewSource(3)).Read(payload)
	if _, err := client.WriteAt(payload, blk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blk)
	if _, err := client.ReadAt(got, blk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback synchronous path returned different bytes than written")
	}
}

// TestPipelineStatsAccount pins the PipeStats counters: submissions are
// counted, the window gauge returns to zero at rest, and at least one
// writev carried the frames.
func TestPipelineStatsAccount(t *testing.T) {
	const blk = 256
	addr, _ := startCRCServer(t, 8*blk, 0, true)
	stats := NewPipeStats()
	client := dialPipe(t, addr, 0, Config{PipeStats: stats})
	buf := make([]byte, blk)
	for i := 0; i < 4; i++ {
		if _, err := client.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Submitted.Load(); got != 4 {
		t.Fatalf("Submitted = %d, want 4", got)
	}
	if got := stats.InFlight.Load(); got != 0 {
		t.Fatalf("InFlight = %d at rest, want 0", got)
	}
	// The writer counts a batch after its writev returns, which the last
	// op's response can overtake: wait for the count.
	for deadline := time.Now().Add(2 * time.Second); stats.Frames.Load() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if stats.Frames.Load() < 4 || stats.Writevs.Load() < 1 {
		t.Fatalf("Frames=%d Writevs=%d, want >=4 frames over >=1 writevs",
			stats.Frames.Load(), stats.Writevs.Load())
	}
}

// TestPipelineTearAfterDequeue pins the writer's shutdown hand-off: ops
// the writer has already taken out of the request queue when the pipe
// fails are in nobody else's reach — the shutdown drain only empties
// the queue, and fail() leaves queued ops to the writer — so writeBatch
// itself must hand them the terminal error. The test plays the writer
// by hand (a pipe with no goroutines of its own), tears the pipe
// between the dequeue and writeBatch, and requires every submitted op
// to come back with the tear, its window token returned.
func TestPipelineTearAfterDequeue(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	const ops = 4
	stats := NewPipeStats()
	p := &pipe{
		conn:    client,
		stats:   stats,
		window:  make(chan struct{}, ops),
		reqCh:   make(chan *call, ops),
		quit:    make(chan struct{}),
		waiters: map[uint32]*call{},
	}
	ctx := context.Background()
	var submitted []*call
	for i := 0; i < ops; i++ {
		if err := p.acquireToken(ctx); err != nil {
			t.Fatal(err)
		}
		op := getCall()
		op.buildMgmt(OpSize)
		if err := p.submit(ctx, op); err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, op)
	}
	// The writer's dequeue: the whole queue moves into its batch.
	var batch []*call
	for len(p.reqCh) > 0 {
		batch = append(batch, <-p.reqCh)
	}
	tear := errors.New("torn between dequeue and send")
	p.fail(tear)
	if p.writeBatch(batch) {
		t.Fatal("writeBatch kept the writer alive on a failed pipe")
	}
	p.drainQueue() // the writer's exit path; the queue is already empty
	for i, op := range submitted {
		select {
		case <-op.done:
		default:
			t.Fatalf("op %d was left queued with no one to fail it: its caller would wait forever", i)
		}
		if !errors.Is(op.err, tear) {
			t.Fatalf("op %d completed with %v, want the tear", i, op.err)
		}
		if got := op.state.Load(); got != pipeDone {
			t.Fatalf("op %d ended in state %d, want done", i, got)
		}
	}
	if n := len(p.window); n != 0 {
		t.Fatalf("%d window tokens still held after the tear", n)
	}
	if n := stats.InFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge reads %d after the tear", n)
	}
}
