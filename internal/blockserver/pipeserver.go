package blockserver

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// This file is the server's pipelined scheduler: after OpFeatures
// grants FeaturePipeline, the connection switches to a demux goroutine
// (this connection's serve goroutine — it decodes request frames
// serially off a buffered reader; writes and management ops are applied
// as they are decoded, preserving the direct-into-store zero-copy
// receive path and stream synchronization), a small pool of workers
// that apply the pending read-class requests (so store reads complete
// out of order instead of head-of-line blocking behind a slow range),
// and one response writer that coalesces queued replies into a single
// vectored write. What a request means — its parse, checks, store
// access and reply bytes — is the codec's business (wire.go); only the
// tag in front of each frame and the moment apply runs are decided here.
//
// In-flight requests have no ordering guarantee relative to each other;
// a client that needs read-after-write ordering must not overlap the
// two — exactly the contract internal/cluster already honors via its
// volume locking.

// srvPipeWorkers is the per-connection read worker count: enough for
// out-of-order completion, few enough that per-connection cost stays
// trivial.
const srvPipeWorkers = 2

// srvPipeQueue bounds the task and response queues. The client's
// in-flight window is the real backpressure; this just sizes channel
// buffers so the demux rarely blocks on a busy worker.
const srvPipeQueue = 64

// srvTask is one tagged request on its way through the scheduler: the
// decoded request (owned by the task — the demux moves on to the next
// frame at once), the reply being built for it, and when it arrived.
type srvTask struct {
	req   request
	rp    *reply
	tag   uint32
	start time.Time // valid when metrics/tracing are on
}

var (
	srvTaskPool  = sync.Pool{New: func() any { return new(srvTask) }}
	srvReplyPool = sync.Pool{New: func() any { return new(reply) }}
)

func putReply(rp *reply) {
	rp.reset()
	srvReplyPool.Put(rp)
}

// pipeSrv is one pipelined connection's server-side state.
type pipeSrv struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	hdr  [5]byte // demux scratch for op|tag

	taskCh chan *srvTask
	respCh chan *reply

	workerWG   sync.WaitGroup
	writerDone chan struct{}
}

// servePipelined runs the connection in pipelined mode until the peer
// disconnects or a framing violation tears it down; r is the
// connection's stream from the first tagged frame on. Shutdown order:
// the demux stops, workers drain their queue and exit, then the writer
// drains the response queue and exits — so no goroutine is ever left
// blocked on a channel.
func (s *Server) servePipelined(conn net.Conn, r io.Reader) {
	ps := &pipeSrv{
		s:          s,
		conn:       conn,
		br:         bufio.NewReaderSize(r, pipeReaderSize),
		taskCh:     make(chan *srvTask, srvPipeQueue),
		respCh:     make(chan *reply, srvPipeQueue),
		writerDone: make(chan struct{}),
	}
	ps.workerWG.Add(srvPipeWorkers)
	for i := 0; i < srvPipeWorkers; i++ {
		go ps.worker()
	}
	go ps.writeLoop()
	ps.demux()
	close(ps.taskCh)
	ps.workerWG.Wait()
	close(ps.respCh)
	<-ps.writerDone
}

// demux decodes request frames serially. Pending (read-class) requests
// are queued to the workers; everything else was applied by the decode
// itself — its payload must be consumed in stream order anyway — and
// goes straight to the writer.
func (ps *pipeSrv) demux() {
	for {
		if _, err := io.ReadFull(ps.br, ps.hdr[:]); err != nil {
			return
		}
		t := srvTaskPool.Get().(*srvTask)
		t.tag, t.start = binary.BigEndian.Uint32(ps.hdr[1:]), ps.s.clock()
		t.rp = srvReplyPool.Get().(*reply)
		t.rp.acct = opAcct{}
		pending, err := ps.s.decode(ps.br, ps.hdr[0], &t.req, t.rp)
		if err != nil {
			ps.s.account(ps.hdr[0], &t.rp.acct, t.start, err)
			putReply(t.rp)
			srvTaskPool.Put(t)
			return
		}
		if pending {
			ps.taskCh <- t
		} else {
			ps.finish(t)
		}
	}
}

// worker applies queued pending requests; each reply is built
// independently, so a slow range on one tag never blocks another tag's
// completion.
func (ps *pipeSrv) worker() {
	defer ps.workerWG.Done()
	for t := range ps.taskCh {
		ps.s.apply(&t.req, t.rp)
		ps.finish(t)
	}
}

// finish accounts a served request, stamps its tag into the reply's tag
// room and hands the reply to the coalescing writer. The send never
// blocks indefinitely: the writer drains respCh until it is closed,
// even after a write error.
func (ps *pipeSrv) finish(t *srvTask) {
	ps.s.account(t.req.op, &t.rp.acct, t.start, nil)
	binary.BigEndian.PutUint32(t.rp.bufs[0], t.tag)
	ps.respCh <- t.rp
	t.rp = nil
	srvTaskPool.Put(t)
}

// writeLoop coalesces queued replies into vectored writes: all replies
// ready at wake-up go out in one writev. On a write error it keeps
// draining (recycling frames) until the channel closes, so workers and
// the demux never block on a dead peer.
func (ps *pipeSrv) writeLoop() {
	defer close(ps.writerDone)
	var pend []*reply
	var bufs [][]byte
	var nb net.Buffers
	broken := false
	for rp := range ps.respCh {
		pend = append(pend[:0], rp)
		// Same trick as the client writer: yield once so the workers and
		// demux that are mid-enqueue land their replies before the gather,
		// deepening the batch behind each writev.
		runtime.Gosched()
	gather:
		for {
			select {
			case rp2, ok := <-ps.respCh:
				if !ok {
					break gather
				}
				pend = append(pend, rp2)
			default:
				break gather
			}
		}
		if !broken {
			bufs = bufs[:0]
			for _, rp := range pend {
				bufs = append(bufs, rp.bufs...)
			}
			nb = net.Buffers(bufs)
			if _, err := nb.WriteTo(ps.conn); err != nil {
				// Tear the connection: the demux wakes on its next read
				// and starts the shutdown cascade.
				ps.conn.Close()
				broken = true
			}
		}
		for _, rp := range pend {
			putReply(rp)
		}
	}
}
