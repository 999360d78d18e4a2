package blockserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
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
// Cancellation never poisons the stream: a cancelled op is dropped by
// its caller, the reader later drains that tag's response into scratch,
// and every other in-flight op is untouched. Only transport/framing
// trouble (or an expired OpTimeout) tears the pipe, failing every
// in-flight tag with the same terminal error.
//
// Ownership: the pipe's lock owns a call's lifecycle. A call is queued,
// then sent (its frame is inside or past a writev), then done (it has
// its verdict or the pipe's terminal error); users counts the loops
// holding its buffers right now — the writer for as long as the writev
// that carries its frame runs, the reader while it decodes into the
// caller's memory. phase, users and dropped change only under p.mu, and
// one function, settle, hands a call back to its caller: when it is
// done and users is zero, never earlier. So a response that overtakes
// the writer's return from its writev completes the call but does not
// release it, and a call can never be recycled, and resubmitted on
// another pipe, under a writer that still holds it. A cancelling caller
// (drop) waits for users to reach zero and then either keeps a call
// that completed anyway or marks it dropped. A dropped call is
// deliberately never recycled — the queue or the table of a pipe may
// still reference it, and a pooled call in their reach must not
// re-enter circulation; the GC takes it. Cancellations are rare (hedge
// losers), so the lost recycle is noise.

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

// phase is where a pipelined call stands; see the ownership note above.
type phase uint8

const (
	phaseQueued phase = iota // registered; its frame has not reached a writev
	phaseSent                // its frame is inside or past a writev; the response is awaited
	phaseDone                // it has its verdict, or the pipe's terminal error
)

// pipe is one pipelined connection's shared machinery: the bounded
// in-flight window, the tag→call table, and the writer/reader pair.
type pipe struct {
	conn      net.Conn
	br        *bufio.Reader
	opTimeout time.Duration
	crcMode   bool // FeatureCRC also negotiated: vector ops travel as VC twins
	stats     *PipeStats

	window chan struct{} // in-flight token semaphore
	wake   chan struct{} // cap 1: the queue has gone non-empty
	quit   chan struct{}

	mu      sync.Mutex
	calls   map[uint32]*call // by tag, until the response is claimed (or the call dropped while queued)
	queue   []*call          // submitted, not yet taken by the writer
	nextTag uint32
	err     error // terminal; set once by fail
	// idle is signalled when a loop lets go of calls; drop waits on it.
	idle sync.Cond

	wg sync.WaitGroup

	// Writer scratch: the batch in hand, the assembled iovec list and the
	// persistent net.Buffers header (WriteTo consumes its receiver, so
	// keeping the field stops the slice header escaping per batch).
	batch []*call
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

// newPipe starts the pipelined scheduler on conn; r is the connection's
// stream from the first tagged response on.
func newPipe(conn net.Conn, r io.Reader, window int, opTimeout time.Duration, crcMode bool, stats *PipeStats) *pipe {
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
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		calls:     make(map[uint32]*call, window),
	}
	p.idle.L = &p.mu
	p.br = bufio.NewReaderSize(r, pipeReaderSize)
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

// settle hands op back to its caller — window token first, then the
// signal, so a caller that has seen its op complete also sees the
// window (and the in-flight gauge) without it — if op is done and no
// loop still holds its buffers. It is the only place a completed call
// is released, and each of the three events that can make the condition
// true calls it: the reader finishing a decode, the writer returning
// from a writev, and fail. Called with p.mu held.
func (p *pipe) settle(op *call) {
	if op.phase != phaseDone || op.users > 0 {
		return
	}
	p.releaseToken()
	select {
	case op.done <- struct{}{}:
	default: // cannot happen: done is empty at submit and a call settles once
	}
}

// fail is the single teardown path: record the terminal error, give it
// to every call still in the table — queued or sent alike; one the
// writer holds inside a writev is handed back by the writer when the
// closed connection aborts that writev — then stop both goroutines and
// close the connection. A call the reader has already claimed is out
// of the table and gets the reader's own verdict.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return
	}
	p.err = err
	for _, op := range p.calls {
		if op.dropped {
			continue // nobody waits, and drop released its token
		}
		op.err = err
		op.phase = phaseDone
		p.settle(op)
	}
	// Calls handed back above may be recycled at once: neither the table
	// nor the queue may keep them in the loops' reach.
	clear(p.calls)
	p.queue = nil
	p.mu.Unlock()
	close(p.quit)
	p.conn.Close()
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

// releaseToken returns an op's window slot.
func (p *pipe) releaseToken() {
	<-p.window
	p.stats.InFlight.Add(-1)
}

// submit registers op under a fresh tag and queues it for the writer.
// The caller must hold a window token. Registration and the queue push
// happen under the lock fail uses to publish the terminal error, so a
// submitted op is always in fail's reach.
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
	op.phase = phaseQueued
	p.calls[op.tag] = op
	first := len(p.queue) == 0
	p.queue = append(p.queue, op)
	p.mu.Unlock()
	if first {
		// The queue went non-empty: wake the writer. Later submits ride
		// on this wake-up until the writer takes the queue.
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	p.stats.Submitted.Inc()
	return nil
}

// drop detaches a cancelled caller from op. It first waits until
// neither loop holds the caller's buffers — the writev that carries the
// frame has returned, the reader is not decoding into dst — and then
// returns true when the op completed anyway (the caller keeps it and
// must recycle it), false when it was marked dropped: a frame still
// queued is never sent, a response still to come is drained into
// scratch, and the op is never recycled.
func (p *pipe) drop(op *call) (callerOwns bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for op.users > 0 {
		p.idle.Wait()
	}
	if op.phase == phaseDone {
		return true
	}
	if op.phase == phaseQueued {
		delete(p.calls, op.tag) // no response will come; the writer skips it
	}
	op.dropped = true
	p.stats.Abandoned.Inc()
	p.releaseToken()
	return false
}

// --- writer -----------------------------------------------------------

// writeLoop sends whatever is queued each time it is woken, coalescing
// every queued frame into one vectored write: under load, many ops cost
// one writev syscall.
func (p *pipe) writeLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.wake:
			// One cooperative yield before taking the queue: the callers
			// that raced us to it get a scheduling slot to finish their
			// enqueues, so the batch below coalesces deeper into one
			// writev. With nothing else runnable this costs well under a
			// microsecond; under load it roughly halves the syscall rate.
			runtime.Gosched()
			p.writeBatch()
		case <-p.quit:
			return
		}
	}
}

// take moves the queue into the writer's batch, skipping frames whose
// caller dropped them while queued. From here until letGo the writer is
// a user of every call in the batch.
func (p *pipe) take() []*call {
	p.mu.Lock()
	batch := p.batch[:0]
	for _, op := range p.queue {
		if op.dropped {
			continue
		}
		op.phase = phaseSent
		op.users++
		batch = append(batch, op)
	}
	clear(p.queue)
	p.queue = p.queue[:0]
	p.mu.Unlock()
	p.batch = batch
	return batch
}

// letGo ends the writer's hold on its batch and hands back the calls
// that completed — answered by the server, or failed with the pipe —
// while their frames were inside the writev.
func (p *pipe) letGo(batch []*call) {
	p.mu.Lock()
	for _, op := range batch {
		op.users--
		p.settle(op)
	}
	p.mu.Unlock()
	p.idle.Broadcast()
}

// writeBatch streams the queued frames as one writev. A failed write
// tears the pipe; on a torn pipe the queue is empty (fail emptied it and
// submit refuses), so the writer finds nothing more to send and exits
// on quit.
func (p *pipe) writeBatch() {
	batch := p.take()
	if len(batch) == 0 {
		return
	}
	now := time.Now()
	bufs := p.wbufs[:0]
	for _, op := range batch {
		p.stats.QueueWait.Observe(now.Sub(op.enq))
		bufs = append(bufs, op.bufs...)
	}
	p.wbufs = bufs
	if p.opTimeout > 0 {
		p.conn.SetWriteDeadline(now.Add(p.opTimeout))
	}
	p.nb = net.Buffers(bufs)
	_, werr := p.nb.WriteTo(p.conn)
	// Counted before the batch is let go, so a completed op's frame is
	// always in the count.
	p.stats.Writevs.Inc()
	p.stats.Frames.Add(int64(len(batch)))
	if werr != nil {
		p.fail(werr)
	}
	p.letGo(batch)
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
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if !p.anyExpired() {
					continue // spurious wake: no waiter actually timed out
				}
				err = fmt.Errorf("blockserver: pipelined op timed out: %w", os.ErrDeadlineExceeded)
			}
			p.fail(err) // a no-op when the pipe failed first and closed the conn under us
			return
		}
		tag := binary.BigEndian.Uint32(hdr)
		status := hdr[4]
		p.br.Discard(5)
		// Claim the call for decoding. Its frame is fully on the wire even
		// if the writev that carried it is still sending later frames of
		// the batch, so decoding is safe; the call is just not handed back
		// until the writer lets go of it too. A dropped call's response is
		// drained without touching caller memory. A tag that is not in the
		// table, or whose frame was never sent, is the server's invention.
		p.mu.Lock()
		op := p.calls[tag]
		if op != nil && op.phase == phaseSent {
			delete(p.calls, tag)
		} else {
			op = nil
		}
		claimed := op != nil && !op.dropped
		if claimed {
			op.users++
		}
		p.mu.Unlock()
		if op == nil {
			p.fail(fmt.Errorf("%w: response for unknown tag %d", ErrProtocol, tag))
			return
		}
		err = p.dec.response(op, status, claimed)
		if claimed {
			p.mu.Lock()
			if err != nil {
				op.err = err
			}
			op.phase = phaseDone
			op.users--
			p.settle(op)
			p.mu.Unlock()
			p.idle.Broadcast()
		}
		if err != nil {
			// Transport/framing trouble mid-response: the stream is
			// desynchronized.
			p.fail(err)
			return
		}
	}
}

// minDeadline returns the earliest deadline among in-flight calls, or
// zero when none carry one.
func (p *pipe) minDeadline() time.Time {
	var min time.Time
	p.mu.Lock()
	for _, op := range p.calls {
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

// anyExpired reports whether some in-flight call's deadline has actually
// passed (as opposed to an idle-heartbeat wake).
func (p *pipe) anyExpired() bool {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, op := range p.calls {
		if !op.deadline.IsZero() && !now.Before(op.deadline) {
			return true
		}
	}
	return false
}

// run submits a built call and waits for it, recycling the call unless
// it had to be dropped. A cancelled caller returns ctx's error whether
// or not the op completed anyway, and the pipe stays healthy.
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
	if ctx.Done() == nil {
		<-op.done
	} else {
		select {
		case <-op.done:
		case <-ctx.Done():
			if !p.drop(op) {
				return result{}, ctx.Err()
			}
			op.err = ctx.Err()
		}
	}
	res, err := op.result, op.err
	putCall(op)
	return res, err
}
