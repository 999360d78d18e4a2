package blockserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"shiftedmirror/internal/obs"
)

// This file is the client's pipelined scheduler (FeaturePipeline): a
// single writer goroutine coalesces queued request frames into one
// vectored write (many ops, one syscall), and a single reader goroutine
// demuxes tagged responses to per-tag waiters, so many operations share
// one connection with out-of-order completion. The calls it carries are
// built and decoded by the shared codec (call.go); only the framing is
// decided here (op|tag|payload requests, tag|status|payload responses).
//
// Cancellation never poisons the stream: a cancelled op abandons its
// waiter, the reader later drains that tag's response into scratch, and
// every other in-flight op is untouched. Only transport/framing trouble
// (or an expired OpTimeout) tears the pipe, failing every in-flight tag
// with the same terminal error.
//
// Ownership protocol: every op has exactly one cleanup owner, decided
// by compare-and-swap on its state. The submitting goroutine owns ops
// that reach pipeDone (and is the only recycler); an op that was
// abandoned mid-flight is deliberately never recycled — whichever
// goroutine drains or drops it just lets the GC take it, because a
// pooled op that is still referenced from a dead pipe's queue must
// never re-enter circulation. Cancellations are rare (hedge losers), so
// the lost recycle is noise.

// PipeStats collects one or more pipelined connections' counters. A nil
// *PipeStats is never used — the client builds a private one when the
// caller does not supply one via Config.PipeStats — and one PipeStats
// may be shared by many connections (internal/cluster shares one per
// volume). All updates are allocation-free.
type PipeStats struct {
	// InFlight is the current number of submitted-but-uncompleted ops
	// across the sharing connections (window occupancy).
	InFlight obs.Gauge
	// QueueWait is the time an op spends queued before the writer
	// goroutine picks it up for its coalesced writev.
	QueueWait *obs.Histogram
	// Frames counts request frames written; Writevs counts the vectored
	// writes that carried them. Frames/Writevs is the coalescing factor.
	Frames  obs.Counter
	Writevs obs.Counter
	// Submitted counts ops entering a pipe; Abandoned counts ops whose
	// caller cancelled while they were in flight (their responses are
	// drained off the stream without touching caller memory).
	Submitted obs.Counter
	Abandoned obs.Counter
}

// NewPipeStats returns a PipeStats ready for sharing across clients.
func NewPipeStats() *PipeStats {
	return &PipeStats{QueueWait: obs.NewHistogram()}
}

// Pipelined call states. The lifecycle is queued → sending → sent →
// receiving → done; an abandoning caller CASes queued→abandoned or
// sent→abandoned and joins the writer/reader when the op is
// mid-transfer, so caller-owned buffers are never touched after a
// cancelled call returns.
const (
	pipeQueued int32 = iota
	pipeSending
	pipeSent
	pipeReceiving
	pipeDone
	pipeAbandoned
)

func signalPipe(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pipe is one pipelined connection's shared machinery: the bounded
// in-flight window, the tag→waiter table, and the writer/reader pair.
type pipe struct {
	conn      net.Conn
	br        *bufio.Reader
	opTimeout time.Duration
	crcMode   bool // FeatureCRC also negotiated: vector ops travel as VC twins
	stats     *PipeStats

	window chan struct{} // in-flight token semaphore
	reqCh  chan *call    // cap == window, so sends never block
	quit   chan struct{}

	mu      sync.Mutex
	waiters map[uint32]*call
	nextTag uint32
	err     error // terminal; set once by fail

	failOnce sync.Once
	wg       sync.WaitGroup

	// Writer scratch: the assembled iovec list and the persistent
	// net.Buffers header (WriteTo consumes its receiver, so keeping the
	// field stops the slice header escaping per batch).
	wbufs [][]byte
	nb    net.Buffers
	// dec decodes responses off br; only the reader goroutine uses it.
	dec decoder
}

// pipeReaderSize is the demux reader's buffer: big enough that a burst
// of small-op response headers costs one read syscall, small enough to
// be irrelevant per connection.
const pipeReaderSize = 64 << 10

// DefaultPipeWindow is the in-flight window when Config.PipeWindow is
// unset: deep enough to keep a loopback or LAN link busy with
// element-sized ops, shallow enough to bound per-connection memory.
const DefaultPipeWindow = 32

func newPipe(conn net.Conn, window int, opTimeout time.Duration, crcMode bool, stats *PipeStats) *pipe {
	if window <= 0 {
		window = DefaultPipeWindow
	}
	if stats == nil {
		stats = NewPipeStats()
	}
	if stats.QueueWait == nil {
		stats.QueueWait = obs.NewHistogram()
	}
	p := &pipe{
		conn:      conn,
		opTimeout: opTimeout,
		crcMode:   crcMode,
		stats:     stats,
		window:    make(chan struct{}, window),
		reqCh:     make(chan *call, window),
		quit:      make(chan struct{}),
		waiters:   make(map[uint32]*call, window),
	}
	p.br = bufio.NewReaderSize(conn, pipeReaderSize)
	p.dec.r = p.br
	p.wg.Add(2)
	go p.writeLoop()
	go p.readLoop()
	return p
}

// close tears the pipe down and joins both goroutines.
func (p *pipe) close() {
	p.fail(errPipeClosed)
	p.wg.Wait()
}

var errPipeClosed = fmt.Errorf("blockserver: client closed")

// terminalErr returns the pipe's terminal error once set.
func (p *pipe) terminalErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return errPipeClosed
}

// fail is the single teardown path: record the terminal error, stop
// both goroutines, close the connection, and fail the in-flight
// waiters. Ops the writer is mid-writev on are joined via their sent
// signal first, so no caller resumes while a writev still references
// its buffers; ops still queued are left to the writer, which delivers
// the terminal error to everything it has dequeued but not sent
// (writeBatch) and to everything still in the queue (drainQueue) — and
// is guaranteed to see them all, because submit enqueues under the same
// lock fail uses to set the terminal error.
func (p *pipe) fail(err error) {
	p.failOnce.Do(func() {
		p.mu.Lock()
		p.err = err
		ws := p.waiters
		p.waiters = map[uint32]*call{}
		p.mu.Unlock()
		close(p.quit)
		p.conn.Close()
		for _, op := range ws {
			for done := false; !done; {
				switch op.state.Load() {
				case pipeSending:
					<-op.sent // the closed conn aborts the writev promptly
				case pipeSent:
					if op.state.CompareAndSwap(pipeSent, pipeDone) {
						op.err = err
						p.releaseToken()
						signalPipe(op.done)
						done = true
					}
				default:
					// pipeQueued: the writer delivers it (see failQueued).
					// pipeAbandoned: the abandoner released its token and
					// nobody waits; the GC reclaims it.
					// pipeReceiving/pipeDone: the reader owns(-ed) it and
					// delivers its own verdict.
					done = true
				}
			}
		}
	})
}

func (p *pipe) acquireToken(ctx context.Context) error {
	select {
	case p.window <- struct{}{}:
		p.stats.InFlight.Add(1)
		return nil
	case <-p.quit:
		return p.terminalErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseToken returns an op's window slot. Completion paths call it
// before they signal the op done, so a caller that has seen its op
// complete also sees the window (and the in-flight gauge) without it.
func (p *pipe) releaseToken() {
	<-p.window
	p.stats.InFlight.Add(-1)
}

// submit registers op under a fresh tag and hands it to the writer. The
// caller must hold a window token. Registration and the queue push
// happen under the pipe lock — the push can never block (reqCh's cap is
// the window size and every queued op holds a token) — so fail() can
// rely on every registered op either being visible in the queue or
// having observed the terminal error.
func (p *pipe) submit(ctx context.Context, op *call) error {
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	op.tag = p.nextTag
	p.nextTag++
	op.enq = time.Now()
	if p.opTimeout > 0 {
		op.deadline = op.enq.Add(p.opTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (op.deadline.IsZero() || d.Before(op.deadline)) {
		op.deadline = d
	}
	// Tagged framing: op | tag fill the request room.
	op.hdr[0] = op.op
	binary.BigEndian.PutUint32(op.hdr[1:reqRoom], op.tag)
	p.waiters[op.tag] = op
	p.reqCh <- op
	p.mu.Unlock()
	p.stats.Submitted.Inc()
	return nil
}

// wait blocks until the op completes or ctx is cancelled. On
// cancellation the op is abandoned — its response will be drained off
// the stream without touching caller memory — and the pipe stays
// healthy. The returned bool reports whether the caller still owns the
// op (and must recycle it); an abandoned op must never be recycled.
func (p *pipe) wait(ctx context.Context, op *call) (error, bool) {
	if ctx.Done() == nil {
		<-op.done
		return op.err, true
	}
	select {
	case <-op.done:
		return op.err, true
	case <-ctx.Done():
	}
	return ctx.Err(), p.abandon(op)
}

// abandon detaches a cancelled caller from op. It returns true when the
// op reached a terminal state anyway (the caller keeps ownership),
// false when the op was handed off mid-flight. It never returns while
// another goroutine may still touch the caller's buffers.
func (p *pipe) abandon(op *call) (callerOwns bool) {
	for {
		switch op.state.Load() {
		case pipeQueued:
			if op.state.CompareAndSwap(pipeQueued, pipeAbandoned) {
				// Still in reqCh: the writer (or its shutdown drain) will
				// see the state and drop the frame without sending.
				p.stats.Abandoned.Inc()
				p.unregister(op.tag)
				p.releaseToken()
				return false
			}
		case pipeSending:
			<-op.sent // the writev referencing our buffers must finish first
		case pipeSent:
			if op.state.CompareAndSwap(pipeSent, pipeAbandoned) {
				// The reader will drain this tag's response into scratch.
				p.stats.Abandoned.Inc()
				p.releaseToken()
				return false
			}
		case pipeReceiving:
			<-op.done // the reader is writing our dst; join it
			return true
		default: // pipeDone
			return true
		}
	}
}

// unregister removes a tag from the waiters table if still present.
func (p *pipe) unregister(tag uint32) {
	p.mu.Lock()
	delete(p.waiters, tag)
	p.mu.Unlock()
}

// --- writer -----------------------------------------------------------

// writeLoop drains the request queue, coalescing every queued frame
// into one vectored write: under load, many ops cost one writev
// syscall. Abandoned-while-queued ops are dropped here. On exit the
// queue is drained so no submitted op is left hanging.
func (p *pipe) writeLoop() {
	defer p.wg.Done()
	defer p.drainQueue()
	batch := make([]*call, 0, cap(p.reqCh))
	for {
		select {
		case op := <-p.reqCh:
			batch = append(batch[:0], op)
			// One cooperative yield before draining: the callers that
			// raced us to the queue get a scheduling slot to finish their
			// enqueues, so the drain below coalesces a deeper batch into
			// one writev. With nothing else runnable this costs well under
			// a microsecond; under load it roughly halves the syscall rate.
			runtime.Gosched()
		drain:
			for {
				select {
				case op2 := <-p.reqCh:
					batch = append(batch, op2)
				default:
					break drain
				}
			}
			if !p.writeBatch(batch) {
				return
			}
		case <-p.quit:
			return
		}
	}
}

// writeBatch streams one coalesced batch. Returns false when the pipe
// has failed and the writer should exit.
func (p *pipe) writeBatch(batch []*call) bool {
	select {
	case <-p.quit:
		// The pipe failed while this batch sat in the queue. Its ops have
		// already been taken out of reqCh, so the shutdown drain will
		// never see them, and fail() leaves queued ops alone: they get
		// their terminal error here or their callers wait forever.
		err := p.terminalErr()
		for _, op := range batch {
			p.failQueued(op, err)
		}
		return false
	default:
	}
	now := time.Now()
	bufs := p.wbufs[:0]
	live := 0
	for _, op := range batch {
		if !op.state.CompareAndSwap(pipeQueued, pipeSending) {
			continue // abandoned while queued; its frame is never sent
		}
		p.stats.QueueWait.Observe(now.Sub(op.enq))
		bufs = append(bufs, op.bufs...)
		batch[live] = op
		live++
	}
	p.wbufs = bufs
	if live == 0 {
		return true
	}
	if p.opTimeout > 0 {
		p.conn.SetWriteDeadline(now.Add(p.opTimeout))
	}
	p.nb = net.Buffers(bufs)
	_, werr := p.nb.WriteTo(p.conn)
	p.stats.Writevs.Inc()
	p.stats.Frames.Add(int64(live))
	for _, op := range batch[:live] {
		op.state.CompareAndSwap(pipeSending, pipeSent)
		// Two signals: an abandoning caller and fail() may each join.
		signalPipe(op.sent)
		signalPipe(op.sent)
	}
	if werr != nil {
		p.fail(werr)
	}
	select {
	case <-p.quit:
		// fail() hands the terminal error to every sent op it finds, but
		// it may have looked at this batch while it was still queued and
		// left it to the writer; whichever of the two moves an op out of
		// pipeSent owns its delivery.
		err := p.terminalErr()
		for _, op := range batch[:live] {
			if op.state.CompareAndSwap(pipeSent, pipeDone) {
				op.err = err
				p.releaseToken()
				signalPipe(op.done)
			}
		}
		return false
	default:
	}
	return true
}

// failQueued delivers the pipe's terminal error to an op the writer
// dequeued but never sent. An op abandoned while queued is skipped: its
// abandoner already unregistered it and released its token, and the GC
// reclaims it.
func (p *pipe) failQueued(op *call, err error) {
	if op.state.CompareAndSwap(pipeQueued, pipeDone) {
		p.unregister(op.tag)
		op.err = err
		p.releaseToken()
		signalPipe(op.done)
	}
}

// drainQueue delivers the terminal error to every op still queued when
// the writer exits. submit pushes under the same lock fail() uses to
// publish the terminal error, so everything submitted before the pipe
// died is guaranteed to be in the channel by now.
func (p *pipe) drainQueue() {
	err := p.terminalErr()
	for {
		select {
		case op := <-p.reqCh:
			p.failQueued(op, err)
		default:
			return
		}
	}
}

// --- reader -----------------------------------------------------------

// readLoop demuxes tagged responses to their waiters. The connection
// read deadline tracks the earliest in-flight deadline, so a stuck
// server fails every waiter with a timeout instead of hanging forever;
// idle timeouts (no expired waiter) just rearm. bufio.Reader.Peek is
// used for the 5-byte header because it retains partially buffered
// bytes across a deadline wake — a plain ReadFull would desync the
// stream on an unlucky timeout.
func (p *pipe) readLoop() {
	defer p.wg.Done()
	for {
		if p.opTimeout > 0 {
			dl := p.minDeadline()
			if dl.IsZero() {
				dl = time.Now().Add(p.opTimeout) // idle heartbeat
			}
			p.conn.SetReadDeadline(dl)
		}
		hdr, err := p.br.Peek(5)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !p.anyExpired() {
				continue // spurious wake: no waiter actually timed out
			}
			select {
			case <-p.quit:
			default:
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					err = fmt.Errorf("blockserver: pipelined op timed out: %w", os.ErrDeadlineExceeded)
				}
				p.fail(err)
			}
			return
		}
		tag := binary.BigEndian.Uint32(hdr)
		status := hdr[4]
		p.br.Discard(5)
		p.mu.Lock()
		op := p.waiters[tag]
		delete(p.waiters, tag)
		p.mu.Unlock()
		if op == nil {
			p.fail(fmt.Errorf("%w: response for unknown tag %d", ErrProtocol, tag))
			return
		}
		// Claim the op for decoding. A response can arrive while the op
		// is still formally "sending" (the server answered an early frame
		// of a coalesced batch mid-writev); that frame is fully on the
		// wire, so decoding is safe. A failed claim means the caller
		// abandoned: drain the payload without touching caller memory.
		claimed := op.state.CompareAndSwap(pipeSent, pipeReceiving) ||
			op.state.CompareAndSwap(pipeSending, pipeReceiving)
		err = p.dec.response(op, status, claimed)
		if err != nil {
			// Transport/framing trouble mid-response: the stream is
			// desynchronized. Fail the pipe, then deliver to this op (it
			// is already out of the waiters table, so fail missed it).
			p.fail(err)
			if claimed {
				op.err = err
				op.state.Store(pipeDone)
				p.releaseToken()
				signalPipe(op.done)
			}
			return
		}
		if claimed {
			op.state.Store(pipeDone)
			p.releaseToken()
			signalPipe(op.done)
		}
		// Abandoned ops: token already released by the abandoner; the op
		// is intentionally not recycled (see the ownership note on top).
	}
}

// minDeadline returns the earliest deadline among in-flight waiters, or
// zero when none carry one.
func (p *pipe) minDeadline() time.Time {
	var min time.Time
	p.mu.Lock()
	for _, op := range p.waiters {
		if op.deadline.IsZero() {
			continue
		}
		if min.IsZero() || op.deadline.Before(min) {
			min = op.deadline
		}
	}
	p.mu.Unlock()
	return min
}

// anyExpired reports whether some waiter's deadline has actually passed
// (as opposed to an idle-heartbeat wake).
func (p *pipe) anyExpired() bool {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, op := range p.waiters {
		if !op.deadline.IsZero() && !now.Before(op.deadline) {
			return true
		}
	}
	return false
}

// run submits a built call and waits for it, recycling the call when
// ownership stays with the caller.
func (p *pipe) run(ctx context.Context, op *call) (result, error) {
	if err := p.acquireToken(ctx); err != nil {
		putCall(op)
		return result{}, err
	}
	if err := p.submit(ctx, op); err != nil {
		p.releaseToken()
		putCall(op)
		return result{}, err
	}
	err, owns := p.wait(ctx, op)
	if !owns {
		return result{}, err
	}
	res := op.result
	putCall(op)
	return res, err
}
