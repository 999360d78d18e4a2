package blockserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// Config tunes a client's network behaviour. The zero value means no
// timeouts and no feature negotiation (the pre-existing behaviour).
type Config struct {
	// DialTimeout bounds the TCP connect. 0 means no limit.
	DialTimeout time.Duration
	// OpTimeout bounds each request/response exchange end to end
	// (including payload transfer). 0 means no limit. On a synchronous
	// connection the deadline is kept across exchanges and re-armed
	// only when it would leave an exchange less than 7/8 of OpTimeout,
	// so an exchange is bounded by between 7/8 and 1 × OpTimeout. A
	// deadline that fires mid-exchange leaves the stream
	// desynchronized, so the connection is poisoned and must be
	// replaced.
	OpTimeout time.Duration
	// Features is the set of optional capabilities to request at dial
	// time (FeatureCRC, FeaturePipeline). The server grants a subset;
	// servers predating the negotiation opcode tear the probe
	// connection, which the client handles by redialing plain — so
	// requesting features is always safe against old peers. 0 skips
	// negotiation entirely.
	Features byte
	// PipeWindow bounds the in-flight ops on a pipelined connection
	// (FeaturePipeline granted); <= 0 means DefaultPipeWindow. Ignored
	// on synchronous connections.
	PipeWindow int
	// PipeStats, when non-nil, receives the pipelined connection's
	// counters; one PipeStats may be shared across many clients
	// (internal/cluster shares one per volume). nil means the client
	// keeps private counters.
	PipeStats *PipeStats
}

// Client is a remote handle to a served store. It implements
// io.ReaderAt and io.WriterAt; requests on one client are serialized
// over its single connection (open several clients for parallelism —
// internal/cluster pools them).
type Client struct {
	cfg  Config
	conn net.Conn
	// features is the negotiated subset of cfg.Features; crcBlock is the
	// server's sidecar granularity when FeatureCRC was granted. Both are
	// written once at dial time, before the client is shared.
	features byte
	crcBlock int64
	// pipe is the multiplexing machinery when FeaturePipeline was
	// granted; nil on synchronous connections. Set once at dial time.
	// With a pipe, ops bypass the mu/beginOp path entirely — many may
	// be in flight concurrently, completing out of order.
	pipe *pipe
	// lim is what one request frame may carry: wireLimits, except in
	// tests. Set once, before the client is shared.
	lim frameLimits

	mu sync.Mutex
	// broken is set once a transport or framing error leaves the stream
	// desynchronized; every later op fails fast with it.
	broken error
	// Per-connection scratch, guarded by mu, so steady-state I/O sends
	// and parses frames without allocating: fr reads conn a frame at a
	// time, dec parses responses off fr, nb is the persistent writev
	// header (WriteTo consumes its receiver, and a field does not escape
	// per call).
	fr  frameReader
	dec decoder
	nb  net.Buffers
	// deadline is the deadline armed on conn, zero for none (guarded by
	// mu; see arm).
	deadline time.Time
	// Cancellation (see beginOp). The connection's one cancel
	// callback is registered on the context whose Done channel is
	// watched; unwatch deregisters it, keep says the registration
	// outlives the exchange in flight, and last is the Done of the
	// previous exchange under a cancellable context (all guarded by mu;
	// Close retires the registration). watched, inFlight — the Done of
	// the exchange in flight, nil between exchanges — and fired — the
	// watched context's callback has run — are guarded by watchMu, not
	// mu, which the exchange itself holds; watched is written under both.
	unwatch  func() bool
	keep     bool
	last     <-chan struct{}
	watchMu  sync.Mutex
	watched  <-chan struct{}
	inFlight <-chan struct{}
	fired    bool
}

// Dial connects to a Server with no timeouts.
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig connects to a Server with the given timeouts.
func DialConfig(addr string, cfg Config) (*Client, error) {
	return DialContext(context.Background(), addr, cfg)
}

// DialContext connects to a Server, bounding the connect by both the
// context and cfg.DialTimeout (whichever fires first). If cfg.Features
// is non-zero the connection negotiates capabilities before first use;
// a server that predates negotiation tears the probe connection, and
// the client transparently redials without features.
func DialContext(ctx context.Context, addr string, cfg Config) (*Client, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(cfg, conn)
	if cfg.Features != 0 {
		ok, err := c.negotiate(ctx)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if !ok {
			conn.Close()
			conn, err = d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			c = newClient(cfg, conn)
		}
	}
	if c.features&FeaturePipeline != 0 {
		c.pipe = newPipe(c.conn, c.fr.handoff(), cfg.PipeWindow, cfg.OpTimeout,
			c.features&FeatureCRC != 0, cfg.PipeStats)
	}
	return c, nil
}

func newClient(cfg Config, conn net.Conn) *Client {
	c := &Client{cfg: cfg, conn: conn, lim: wireLimits, fr: newFrameReader(conn)}
	c.dec.r = &c.fr
	return c
}

// negotiate runs the OpFeatures exchange on a fresh connection. ok =
// false means the peer does not speak the opcode (it tore the probe
// connection) and the caller should redial plain; a non-nil error means
// the dial itself should fail. Only a peer-initiated tear is treated as
// "old server": any other transport failure propagates, because
// silently redialing plain there would permanently disable the
// requested features (CRC integrity) on a healthy modern server over
// one transient fault — with no signal to the caller.
func (c *Client) negotiate(ctx context.Context) (ok bool, err error) {
	var deadline time.Time
	if c.cfg.OpTimeout > 0 {
		deadline = time.Now().Add(c.cfg.OpTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	cl := getCall()
	defer putCall(cl)
	cl.buildMgmt(OpFeatures, c.cfg.Features)
	if werr := c.send(cl); werr != nil {
		// The peer has not even read the opcode yet, so a write failure
		// cannot be the old-server tear — fail the dial.
		return false, negotiateErr(ctx, werr)
	}
	status, serr := c.fr.first()
	if serr != nil {
		if ctx.Err() == nil && isPeerTear(serr) {
			// Old servers tear the connection on the unknown opcode.
			return false, nil
		}
		return false, negotiateErr(ctx, serr)
	}
	// The server answered the opcode, so losing the rest of the response
	// is a transport failure, not a pre-negotiation peer.
	if rerr := c.dec.response(cl, status, true); rerr != nil {
		return false, negotiateErr(ctx, rerr)
	}
	if cl.err != nil {
		return true, nil // recognized but refused: no features
	}
	c.features = byte(cl.u64>>32) & c.cfg.Features
	if c.features&FeatureCRC != 0 {
		c.crcBlock = int64(uint32(cl.u64))
	}
	return true, nil
}

// negotiateErr prefers the context's verdict (cancelled or expired —
// the caller's doing) over the raw transport error it provoked.
func negotiateErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// isPeerTear reports whether err looks like the peer closing the
// connection on us — what a server predating OpFeatures does with the
// unknown opcode — as opposed to some other transport failure. EOF is
// the clean close, ECONNRESET/EPIPE the close with our feature byte
// still unread.
func isPeerTear(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// Features returns the feature flags granted at dial time.
func (c *Client) Features() byte { return c.features }

// HasCRC reports whether the connection negotiated FeatureCRC: reads
// and writes travel as their CRC-carrying twins and CrcV is available.
func (c *Client) HasCRC() bool { return c.features&FeatureCRC != 0 }

// CRCBlock returns the server's CRC sidecar block size, or 0 when
// FeatureCRC was not negotiated.
func (c *Client) CRCBlock() int64 { return c.crcBlock }

// HasPipeline reports whether the connection negotiated
// FeaturePipeline: ops multiplex over the tagged framing and may
// complete out of order.
func (c *Client) HasPipeline() bool { return c.pipe != nil }

// Close releases the connection. On a pipelined connection every
// in-flight op fails with a closed error and both background goroutines
// are joined before Close returns. A synchronous connection also drops
// its cancel callback, so no context it watched keeps the client alive;
// an exchange in flight fails on the closed connection first.
func (c *Client) Close() error {
	if c.pipe != nil {
		c.pipe.close() // closes the conn via fail
		return nil
	}
	err := c.conn.Close()
	c.mu.Lock()
	c.retireWatch()
	c.mu.Unlock()
	return err
}

// Broken returns the error that poisoned the connection, or nil while it
// is still usable. It is also how a caller reads an op's error: with
// Broken still nil the request was answered on a stream that is in step
// (a RemoteError, a CRCError), refused before it touched the wire
// (mismatched buffers, an unframeable range, ErrNoCRC) or cancelled
// without harm, and the same request on another connection would fare
// no better; once it is non-nil the transport failed, and a fresh
// connection may succeed. internal/cluster's pool retries on exactly
// that.
func (c *Client) Broken() error {
	if c.pipe != nil {
		c.pipe.mu.Lock()
		defer c.pipe.mu.Unlock()
		return c.pipe.err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// beginOp opens one request/response exchange: it takes the client
// lock, fails fast on a poisoned connection or dead context, gives the
// exchange its deadline (arm), and puts the exchange under the
// connection's cancellation callback. Every successful beginOp must be
// paired with endOp; do is the one caller of both.
//
// Cancellation is honored mid-frame, not just at op start: a callback
// registered on ctx slams the connection deadline into the past the
// moment ctx is cancelled, which fails the pending read/write
// immediately. It is a context.AfterFunc, not a goroutine parked on
// ctx.Done(): starting and joining a goroutine per op put two trips
// through the scheduler on every exchange, which on a small op cost
// more than the exchange. And it is registered per connection, not per
// exchange: the registration allocates and takes the parent context's
// lock, so it is made when an exchange arrives under a Done channel the
// connection is not watching, and kept — a long-lived context costs
// nothing once it has served two exchanges in a row on a connection.
// Only then: a per-call context (a hedge's race, say) serves one
// exchange and is cancelled, and a registration kept past that exchange
// would cost the cancel a goroutine to run the callback, so a context
// new to the connection is registered for its exchange alone, as every
// exchange used to be. Between exchanges a kept callback has nothing to
// interrupt: it acts only on an exchange in flight under its own
// context, so a context cancelled while the connection idles, or while
// it serves another context, leaves it alone. Contexts that cannot be
// cancelled (ctx.Done() == nil, e.g. context.Background()) need no
// callback at all.
func (c *Client) beginOp(ctx context.Context) error {
	c.mu.Lock()
	if c.broken != nil {
		c.mu.Unlock()
		return fmt.Errorf("blockserver: connection poisoned by earlier error: %w", c.broken)
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return err
	}
	c.arm(ctx)
	if done := ctx.Done(); done != nil {
		renew := done != c.watched
		if renew {
			c.retireWatch()
			c.keep = done == c.last
		}
		c.last = done
		c.watchMu.Lock()
		if renew {
			c.watched, c.fired = done, false
		}
		c.inFlight = done
		fired := c.fired
		c.watchMu.Unlock()
		if renew {
			// Registered only now, with the exchange under it: on a context
			// already cancelled the callback runs at once and interrupts it.
			c.unwatch = context.AfterFunc(ctx, func() { c.interrupt(done) })
		}
		if fired {
			// The callback ran between the check above and now, with
			// nothing to interrupt, and runs only once: the exchange must
			// not start.
			c.endOp(ctx, nil)
			return ctx.Err()
		}
	}
	return nil
}

// arm gives the exchange about to start its deadline, and touches the
// connection only when that deadline differs from the one armed. A
// context deadline tighter than cfg.OpTimeout is armed exactly. Without
// one, the connection keeps the deadline it has as long as that leaves
// the exchange at least 7/8 of OpTimeout, and is re-armed to a full
// OpTimeout otherwise: an exchange without a context deadline is
// bounded by between 7/8 and 1 × OpTimeout, and a busy connection
// updates its timer once per OpTimeout/8 rather than twice per exchange.
// A deadline left behind by an earlier exchange — a context's, or one
// that passed while the connection idled — never cuts a later one
// short: it is re-armed or, with no OpTimeout, cleared. Call with mu
// held.
func (c *Client) arm(ctx context.Context) {
	d, ok := ctx.Deadline()
	if t := c.cfg.OpTimeout; t > 0 {
		now := time.Now()
		if !ok || !d.Before(now.Add(t)) {
			if !c.deadline.IsZero() && !c.deadline.Before(now.Add(t-t/8)) {
				return // what is armed leaves the exchange at least 7/8 of t
			}
			d = now.Add(t)
		}
	} else if !ok {
		d = time.Time{}
	}
	if !d.Equal(c.deadline) {
		c.conn.SetDeadline(d)
		c.deadline = d
	}
}

// interrupt is the cancel callback of the context whose Done channel is
// done. If the connection still watches that context it records that
// the callback ran and fails the exchange in flight under it, if any,
// by moving the deadline into the past; the callback of a registration
// already retired does nothing.
func (c *Client) interrupt(done <-chan struct{}) {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if done != c.watched {
		return
	}
	c.fired = true
	if c.inFlight == done {
		c.conn.SetDeadline(time.Now().Add(-time.Second))
	}
}

// retireWatch deregisters the connection's cancel callback; one already
// running finds its context no longer watched. Call with mu held.
func (c *Client) retireWatch() {
	if c.unwatch != nil {
		c.unwatch()
	}
	c.unwatch = nil
	c.watchMu.Lock()
	c.watched = nil
	c.watchMu.Unlock()
}

// endOp closes the exchange beginOp opened: takes it out from under the
// cancel callback (retiring a registration not kept), poisons the
// connection when the exchange died mid-frame (anything but a clean
// remote error or a CRC verdict leaves request and response streams out
// of step), clears the deadline if the callback moved it — one the
// exchange armed stays for the next (arm) — and releases the lock. It
// returns the error the caller should surface — a cancellation is
// rewrapped around ctx.Err() so callers can errors.Is it.
func (c *Client) endOp(ctx context.Context, err error) error {
	// From here on a late cancellation cannot clobber the reset below
	// (or the next exchange).
	c.watchMu.Lock()
	moved := c.inFlight != nil && c.fired
	c.inFlight = nil
	c.watchMu.Unlock()
	if !c.keep && c.unwatch != nil {
		c.retireWatch()
	}
	if err != nil && !IsRemote(err) && !IsCRC(err) {
		c.broken = err
		c.conn.Close() // the stream is desynchronized; stop the server side too
		c.mu.Unlock()
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("blockserver: exchange interrupted: %w", cerr)
		}
		return err
	}
	if moved {
		c.conn.SetDeadline(time.Time{})
		c.deadline = time.Time{}
	}
	c.mu.Unlock()
	return err
}

// do runs one built call to completion on whichever scheduler the
// connection negotiated and recycles it. This is the only place the
// client chooses between them.
func (c *Client) do(ctx context.Context, cl *call) (result, error) {
	if c.pipe != nil {
		return c.pipe.run(ctx, cl)
	}
	if err := c.beginOp(ctx); err != nil {
		putCall(cl)
		return result{}, err
	}
	err := c.send(cl)
	if err == nil {
		var status byte
		if status, err = c.fr.first(); err == nil {
			if err = c.dec.response(cl, status, true); err == nil {
				err = cl.err
			}
		}
	}
	res := cl.result
	putCall(cl)
	return res, c.endOp(ctx, err)
}

// send writes cl's request in the synchronous framing: untagged, the
// opcode in the last byte of the request room. Header and payload go
// out in one vectored write (writev on TCP), payloads never copied.
func (c *Client) send(cl *call) error {
	cl.hdr[reqRoom-1] = cl.op
	cl.bufs[0] = cl.bufs[0][reqRoom-1:]
	if len(cl.bufs) == 1 {
		_, err := c.conn.Write(cl.bufs[0])
		return err
	}
	c.nb = net.Buffers(cl.bufs)
	_, err := c.nb.WriteTo(c.conn)
	return err
}

// ReadAt implements io.ReaderAt against the remote store.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning a synchronous connection — see beginOp). A
// buffer larger than one frame may carry travels as consecutive frames;
// the count returned with an error is the bytes of the frames before
// the one that failed.
func (c *Client) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return c.rangeOp(ctx, p, off, (*call).buildRead)
}

// rangeOp runs a one-range read or write, cut by bytes into as many
// frames as the limit asks for, in order, stopping at the first failure.
func (c *Client) rangeOp(ctx context.Context, p []byte, off int64, build func(*call, []byte, int64)) (int, error) {
	for at := 0; ; {
		n := int(min(int64(len(p)-at), c.lim.bytes))
		cl := getCall()
		build(cl, p[at:at+n], off+int64(at))
		if _, err := c.do(ctx, cl); err != nil {
			return at, err
		}
		if at += n; at == len(p) {
			return at, nil
		}
	}
}

// ReadV gathers len(vecs) ranges, filling dst[i] (which must have
// length vecs[i].Len) with range i. See ReadVCtx.
func (c *Client) ReadV(vecs []Vec, dst [][]byte) error {
	return c.ReadVCtx(context.Background(), vecs, dst)
}

// ReadVCtx is ReadV with cancellation: ctx interrupts the exchange even
// mid-frame (poisoning a synchronous connection — see beginOp). A
// request of any size is accepted: it travels as one OpReadV round trip
// when the protocol's limits allow (MaxVecCount ranges, MaxIOSize
// bytes), and otherwise as consecutive frames cut by frameEnd, stopping
// at the first that fails; only a single range larger than MaxIOSize is
// refused. With FeatureCRC negotiated the gather travels as OpReadVC and
// every range is verified against its carried CRC-32C as it lands in
// dst; a mismatch is reported as a CRCError (Range indexes vecs) after
// its frame's response is consumed, so the connection stays usable and
// the caller can fail over to a replica. Payloads land directly in the
// caller's dst slices — the client never copies them through an
// intermediate buffer.
func (c *Client) ReadVCtx(ctx context.Context, vecs []Vec, dst [][]byte) error {
	if err := checkBufs("ReadV", vecs, dst); err != nil {
		return err
	}
	for lo := 0; lo < len(vecs); {
		hi, total, err := frameEnd(vecs, lo, c.lim)
		if err != nil {
			return err
		}
		cl := getCall()
		cl.buildReadV(c.HasCRC(), vecs[lo:hi], dst[lo:hi], total)
		if _, err := c.do(ctx, cl); err != nil {
			return rebase(err, lo)
		}
		lo = hi
	}
	return nil
}

// rebase makes a frame's CRC verdict speak of the caller's request: the
// frame began at range lo of it. Every other error passes through.
func rebase(err error, lo int) error {
	var ce *CRCError
	if errors.As(err, &ce) {
		ce.Range += lo
	}
	return err
}

// WriteAt implements io.WriterAt against the remote store.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx is WriteAt with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning a synchronous connection — see beginOp).
// Like ReadAtCtx it cuts a large buffer into consecutive frames and
// counts the bytes of the frames before a failure.
func (c *Client) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return c.rangeOp(ctx, p, off, (*call).buildWrite)
}

// WriteV scatters len(vecs) ranges, writing data[i] (which must have
// length vecs[i].Len) at vecs[i].Off. See WriteVCtx for the
// partial-success contract.
func (c *Client) WriteV(vecs []Vec, data [][]byte) (int, error) {
	return c.WriteVCtx(context.Background(), vecs, data)
}

// WriteVCtx is WriteV with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning a synchronous connection — see beginOp).
// It frames the request the way ReadVCtx does — one OpWriteV round trip
// when the limits allow, consecutive frames applied in request order
// otherwise. With FeatureCRC negotiated the scatter travels as
// OpWriteVC, each range carrying the CRC-32C of its payload; a
// server-side mismatch comes back as a CRCError (Range indexes vecs)
// with the connection still usable.
//
// It returns applied, the number of leading ranges the server durably
// applied. On a clean exchange applied == len(vecs). On a RemoteError
// or CRCError the server rejected range `applied` — ranges [0, applied)
// are durable — and the connection remains usable; the same holds when
// the client refuses range `applied` as larger than any frame. On
// transport, framing, or cancellation errors applied is 0: the server
// may have applied a prefix, but the client cannot know which, so
// nothing from the request may be credited.
func (c *Client) WriteVCtx(ctx context.Context, vecs []Vec, data [][]byte) (int, error) {
	if err := checkBufs("WriteV", vecs, data); err != nil {
		return 0, err
	}
	for lo := 0; lo < len(vecs); {
		hi, _, err := frameEnd(vecs, lo, c.lim)
		if err != nil {
			return lo, err
		}
		cl := getCall()
		cl.buildWriteV(c.HasCRC(), vecs[lo:hi], data[lo:hi])
		res, err := c.do(ctx, cl)
		if err != nil {
			if IsRemote(err) || IsCRC(err) {
				return lo + res.applied, rebase(err, lo)
			}
			return 0, err
		}
		lo = hi
	}
	return len(vecs), nil
}

// CrcV fetches freshly recomputed CRC-32Cs of len(vecs) store ranges
// (OpCrcV), filling out[i] with range i's checksum. The server reads
// the ranges from its store and checksums them — it never serves its
// write-time sidecar here — so the result reflects the bytes as they
// are now, which is what lets Volume.Scrub compare replicas without
// shipping the data. The request is framed like a gather of the same
// ranges: the server reads every byte it checksums, so the byte limit
// applies even though only 4 bytes per range travel back. Returns
// ErrNoCRC (before touching the wire) when the connection did not
// negotiate FeatureCRC.
func (c *Client) CrcV(ctx context.Context, vecs []Vec, out []uint32) error {
	if !c.HasCRC() {
		return ErrNoCRC
	}
	if len(vecs) != len(out) {
		return fmt.Errorf("blockserver: CrcV has %d ranges but %d slots", len(vecs), len(out))
	}
	for lo := 0; lo < len(vecs); {
		hi, _, err := frameEnd(vecs, lo, c.lim)
		if err != nil {
			return err
		}
		cl := getCall()
		cl.buildVecs(OpCrcV, vecs[lo:hi])
		cl.outCrcs = out[lo:hi]
		if _, err := c.do(ctx, cl); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// Size returns the remote store's capacity.
func (c *Client) Size() (int64, error) {
	cl := getCall()
	cl.buildMgmt(OpSize)
	res, err := c.do(context.Background(), cl)
	return int64(res.u64), err
}
