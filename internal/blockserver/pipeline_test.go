package blockserver

import (
	"bufio"
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
	if stats.Frames.Load() < 4 || stats.Writevs.Load() < 1 {
		t.Fatalf("Frames=%d Writevs=%d, want >=4 frames over >=1 writevs",
			stats.Frames.Load(), stats.Writevs.Load())
	}
}

// handPipe builds a pipe with no goroutines of its own over conn, so a
// test can play the writer (take, writeBatch, letGo) and start the
// reader when it chooses.
func handPipe(conn net.Conn, window int) *pipe {
	p := &pipe{
		conn:   conn,
		br:     bufio.NewReader(conn),
		stats:  NewPipeStats(),
		window: make(chan struct{}, window),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		calls:  map[uint32]*call{},
	}
	p.idle.L = &p.mu
	p.dec.r = p.br
	return p
}

// handSubmit takes a window token and submits op, as run does.
func handSubmit(t *testing.T, p *pipe, op *call) {
	t.Helper()
	if err := p.acquireToken(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.submit(context.Background(), op); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineTearAfterDequeue pins the teardown hand-off around the
// writer: when the pipe fails, every submitted op comes back with the
// tear — the ones the writer has already taken out of the queue (it
// hands them back itself when its writev on the closed connection
// returns) and the ones still queued (fail hands them back) — with the
// window empty afterwards. The test plays the writer by hand on a pipe
// with no goroutines of its own and tears the pipe between the dequeue
// and the send.
func TestPipelineTearAfterDequeue(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	const ops = 4
	p := handPipe(client, ops)
	var submitted []*call
	submit := func(n int) {
		for i := 0; i < n; i++ {
			op := getCall()
			op.buildMgmt(OpSize)
			handSubmit(t, p, op)
			submitted = append(submitted, op)
		}
	}
	submit(ops / 2)
	batch := p.take() // the writer's dequeue
	if len(batch) != ops/2 {
		t.Fatalf("the writer took %d ops, want %d", len(batch), ops/2)
	}
	submit(ops / 2) // these stay queued
	tear := errors.New("torn between dequeue and send")
	p.fail(tear)
	p.letGo(batch) // the writer's writev on the closed connection returned
	if left := p.take(); len(left) != 0 {
		t.Fatalf("%d ops left in the writer's reach on a failed pipe", len(left))
	}
	for i, op := range submitted {
		select {
		case <-op.done:
		default:
			t.Fatalf("op %d was left with no one to fail it: its caller would wait forever", i)
		}
		if !errors.Is(op.err, tear) {
			t.Fatalf("op %d completed with %v, want the tear", i, op.err)
		}
		if op.phase != phaseDone || op.users != 0 {
			t.Fatalf("op %d ended in phase %d with %d users, want done and 0", i, op.phase, op.users)
		}
	}
	if n := len(p.window); n != 0 {
		t.Fatalf("%d window tokens still held after the tear", n)
	}
	if n := p.stats.InFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge reads %d after the tear", n)
	}
}

// answerSize plays a server answering the OpSize frame it reads off
// conn, and returns once the pipe's reader has finished with the
// answer: net.Pipe is unbuffered, so the extra byte — the start of a
// response that never completes — is taken only by the reader's next
// fill, after the previous response is fully processed.
func answerSize(t *testing.T, conn net.Conn) {
	t.Helper()
	frame := make([]byte, reqRoom)
	if _, err := io.ReadFull(conn, frame); err != nil {
		t.Fatal(err)
	}
	resp := append(append([]byte{}, frame[1:]...), statusOK, 0, 0, 0, 0, 0, 0, 0, 42)
	if _, err := conn.Write(resp); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineEarlyResponseWaitsForWriter pins that a call is not
// handed back while the writev that carries its frame is running, even
// when its response has already arrived and been decoded: two calls
// travel in one writev, the server reads and answers the first frame
// while the second is still unread, and the first call must come back
// only when the writev returns — a call handed back earlier is recycled
// under a writer that still holds it.
func TestPipelineEarlyResponseWaitsForWriter(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	p := handPipe(client, 2)
	defer p.close()
	var ops [2]*call
	for i := range ops {
		ops[i] = getCall()
		ops[i].buildMgmt(OpSize)
		handSubmit(t, p, ops[i])
	}
	p.wg.Add(1)
	go p.readLoop()
	wrote := make(chan struct{})
	go func() { p.writeBatch(); close(wrote) }()

	answerSize(t, server)
	select {
	case <-ops[0].done:
		t.Fatal("call 0 was handed back while the writev that carries its frame is still running")
	default:
	}
	if n := len(p.window); n != 2 {
		t.Fatalf("%d window tokens held while both calls are in the writer's hands, want 2", n)
	}
	// The server reads frame 1; the writev returns and lets both calls go.
	if _, err := io.ReadFull(server, make([]byte, reqRoom)); err != nil {
		t.Fatal(err)
	}
	<-wrote
	select {
	case <-ops[0].done:
	default:
		t.Fatal("call 0 was not handed back when the writer let go of it")
	}
	if ops[0].err != nil || ops[0].u64 != 42 {
		t.Fatalf("call 0 came back with size %d, err %v; want 42, nil", ops[0].u64, ops[0].err)
	}
	if n := len(p.window); n != 1 {
		t.Fatalf("%d window tokens held with one call outstanding, want 1", n)
	}
}

// TestRecycledCallNotTouchedByOldWriter walks the chain that let a
// cancelled write return while a writev still referenced its payload:
// a call answered mid-writev on pipe A is recycled by run, the pool
// hands the same object to a write on pipe B whose writer is blocked
// inside its writev, writer A returns and finishes with its batch, and
// B's caller cancels. Whenever writer A lets go of the call, the
// cancelled write must not return before writer B's writev does.
func TestRecycledCallNotTouchedByOldWriter(t *testing.T) {
	clientA, serverA := net.Pipe()
	defer serverA.Close()
	pA := handPipe(clientA, 2)
	defer pA.close()
	x := getCall()
	x.buildMgmt(OpSize)
	xBack := make(chan error, 1)
	go func() {
		_, err := pA.run(context.Background(), x)
		xBack <- err
	}()
	<-pA.wake // x is queued
	y := getCall()
	y.buildMgmt(OpSize)
	handSubmit(t, pA, y)
	pA.wg.Add(1)
	go pA.readLoop()
	wroteA := make(chan struct{})
	go func() { pA.writeBatch(); close(wroteA) }()
	answerSize(t, serverA)
	// Writer A is still inside the writev that carries x and y. It lets
	// go when the server reads y's frame: now, if x has to wait for that,
	// or with x already resubmitted on pipe B, if x came back early.
	finishA := func() {
		if _, err := io.ReadFull(serverA, make([]byte, reqRoom)); err != nil {
			t.Fatal(err)
		}
		<-wroteA
	}
	early := false
	select {
	case err := <-xBack:
		if err != nil {
			t.Fatal(err)
		}
		early = true
	case <-time.After(50 * time.Millisecond):
		finishA()
		if err := <-xBack; err != nil {
			t.Fatal(err)
		}
	}
	// run recycled x; take it out of the pool again.
	var others []*call
	cl := getCall()
	for tries := 0; cl != x && tries < 16; tries++ {
		others = append(others, cl)
		cl = getCall()
	}
	for _, o := range others {
		putCall(o)
	}
	if cl != x {
		putCall(cl)
		t.Skip("the pool handed out a different call object")
	}

	clientB, serverB := net.Pipe()
	defer serverB.Close()
	pB := handPipe(clientB, 1)
	defer pB.close()
	payload := make([]byte, 512)
	x.buildWrite(payload, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bBack := make(chan error, 1)
	go func() {
		_, err := pB.run(ctx, x)
		bBack <- err
	}()
	<-pB.wake // x is queued on B
	wroteB := make(chan struct{})
	go func() { pB.writeBatch(); close(wroteB) }()
	// One byte read: writer B is inside its writev, payload still to go.
	if _, err := io.ReadFull(serverB, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if early {
		finishA()
	}
	cancel()
	select {
	case err := <-bBack:
		t.Fatalf("the cancelled write returned (%v) while the writev that carries its payload is still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	go io.Copy(io.Discard, serverB)
	<-wroteB
	if err := <-bBack; !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled write returned %v, want context.Canceled", err)
	}
}
