package blockserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"shiftedmirror/internal/crc32c"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/raid"
)

// Config tunes a client's network behaviour. The zero value means no
// timeouts and no feature negotiation (the pre-existing behaviour).
type Config struct {
	// DialTimeout bounds the TCP connect. 0 means no limit.
	DialTimeout time.Duration
	// OpTimeout bounds each request/response exchange end to end
	// (including payload transfer). 0 means no limit. A deadline that
	// fires mid-exchange leaves the stream desynchronized, so the
	// connection is poisoned and must be replaced.
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

// Client is a remote handle to a served device or store. It implements
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

	mu sync.Mutex
	// broken is set once a transport or framing error leaves the stream
	// desynchronized; every later op fails fast with it.
	broken error
	// Per-connection scratch, guarded by mu, so steady-state I/O builds
	// and parses frames without allocating: hdr for fixed-size headers,
	// frame for variable-size ones, bufs/nb for vectored sends, crcs for
	// carried checksums.
	hdr   [16]byte
	frame []byte
	bufs  [][]byte
	nb    net.Buffers
	crcs  []uint32
	// Cancellation state for the op in flight (see beginOp). armed says
	// the op set a connection deadline endOp must clear; unwatch
	// deregisters the op's cancel callback. A callback acts only while
	// opGen — guarded by watchMu, not mu, which the op itself holds —
	// still has the value its op was given.
	armed   bool
	unwatch func() bool
	watchMu sync.Mutex
	opGen   uint64
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
	c := &Client{cfg: cfg, conn: conn}
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
			c = &Client{cfg: cfg, conn: conn}
		}
	}
	if c.features&FeaturePipeline != 0 {
		c.pipe = newPipe(c.conn, cfg.PipeWindow, cfg.OpTimeout,
			c.features&FeatureCRC != 0, cfg.PipeStats)
	}
	return c, nil
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
	req := [2]byte{OpFeatures, c.cfg.Features}
	if _, werr := c.conn.Write(req[:]); werr != nil {
		// The peer has not even read the opcode yet, so a write failure
		// cannot be the old-server tear — fail the dial.
		return false, negotiateErr(ctx, werr)
	}
	serr := readStatus(c.conn)
	switch {
	case serr == nil:
	case IsRemote(serr):
		return true, nil // recognized but refused: no features
	case ctx.Err() == nil && isPeerTear(serr):
		// Old servers tear the connection on the unknown opcode.
		return false, nil
	default:
		return false, negotiateErr(ctx, serr)
	}
	var resp [5]byte
	if _, rerr := io.ReadFull(c.conn, resp[:]); rerr != nil {
		// The server already answered OK to the opcode, so losing the
		// payload is a transport failure, not a pre-negotiation peer.
		return false, negotiateErr(ctx, rerr)
	}
	c.features = resp[0] & c.cfg.Features
	if c.features&FeatureCRC != 0 {
		c.crcBlock = int64(binary.BigEndian.Uint32(resp[1:]))
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
// are joined before Close returns.
func (c *Client) Close() error {
	if c.pipe != nil {
		c.pipe.close() // closes the conn via fail
		return nil
	}
	return c.conn.Close()
}

// Broken returns the error that poisoned the connection, or nil while it
// is still usable.
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
// lock, fails fast on a poisoned connection or dead context, arms the
// per-op deadline (the tighter of cfg.OpTimeout and the context
// deadline), and registers the cancellation callback. Every successful
// beginOp must be paired with endOp. The hot I/O methods call the pair
// directly instead of passing a closure to do(), which is what keeps
// their steady state at zero allocations.
//
// Cancellation is honored mid-frame, not just at op start: a callback
// registered on ctx slams the connection deadline into the past the
// moment ctx is cancelled, which fails the pending read/write
// immediately. It is a context.AfterFunc, not a goroutine parked on
// ctx.Done(): starting and joining a goroutine per op put two trips
// through the scheduler on every exchange, which on a small op cost
// more than the exchange. (The registration still allocates; contexts
// that cannot be cancelled — ctx.Done() == nil, e.g.
// context.Background() — skip it, which is the allocation-free steady
// state.)
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
	var deadline time.Time
	if c.cfg.OpTimeout > 0 {
		deadline = time.Now().Add(c.cfg.OpTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		c.conn.SetDeadline(deadline)
	}
	c.armed = !deadline.IsZero() || ctx.Done() != nil
	if ctx.Done() != nil {
		c.watchMu.Lock()
		c.opGen++
		gen := c.opGen
		c.watchMu.Unlock()
		c.unwatch = context.AfterFunc(ctx, func() {
			c.watchMu.Lock()
			if c.opGen == gen {
				c.conn.SetDeadline(time.Now().Add(-time.Second))
			}
			c.watchMu.Unlock()
		})
	}
	return nil
}

// endOp closes the exchange beginOp opened: retires the cancel
// callback, poisons the connection when the exchange died mid-frame
// (anything but a clean remote error or a CRC verdict leaves request and
// response streams out of step), resets the deadline, and releases the
// lock. It returns the
// error the caller should surface — a cancellation is rewrapped around
// ctx.Err() so callers can errors.Is it.
func (c *Client) endOp(ctx context.Context, err error) error {
	if c.unwatch != nil {
		// Retire the cancel callback before touching the deadline again.
		// If it already fired it may still be on its way to the lock;
		// moving opGen on makes it a no-op from here, so a late
		// cancellation cannot clobber the reset below (or the next op).
		c.unwatch()
		c.unwatch = nil
		c.watchMu.Lock()
		c.opGen++
		c.watchMu.Unlock()
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
	if c.armed {
		c.conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
	return err
}

// do runs one exchange as a closure between beginOp and endOp; the
// management ops use it, the hot data path inlines the pair instead.
func (c *Client) do(ctx context.Context, fn func() error) error {
	if err := c.beginOp(ctx); err != nil {
		return err
	}
	return c.endOp(ctx, fn())
}

// growFrame returns the client's reusable frame scratch resized to n
// bytes, growing the backing array only when needed. Callers hold mu.
func (c *Client) growFrame(n int) []byte {
	if cap(c.frame) < n {
		c.frame = make([]byte, n)
	}
	return c.frame[:n]
}

// readStatus consumes a response header using the client's scratch, so
// the success path does not allocate (the package-level readStatus
// reads into fresh stack buffers that escape into the Reader).
func (c *Client) readStatus() error {
	if _, err := io.ReadFull(c.conn, c.hdr[:1]); err != nil {
		return err
	}
	switch c.hdr[0] {
	case statusOK:
		return nil
	case statusCRC:
		if _, err := io.ReadFull(c.conn, c.hdr[:12]); err != nil {
			return err
		}
		return &CRCError{
			Range: int(binary.BigEndian.Uint32(c.hdr[:])),
			Want:  binary.BigEndian.Uint32(c.hdr[4:]),
			Got:   binary.BigEndian.Uint32(c.hdr[8:]),
			Write: true,
		}
	default:
		if _, err := io.ReadFull(c.conn, c.hdr[:4]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(c.hdr[:4])
		if n > 1<<16 {
			return fmt.Errorf("%w: oversized error message (%d bytes)", ErrProtocol, n)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.conn, msg); err != nil {
			return err
		}
		return &RemoteError{Msg: string(msg)}
	}
}

// readUint32 reads a big-endian uint32 using the client's scratch.
func (c *Client) readUint32() (uint32, error) {
	if _, err := io.ReadFull(c.conn, c.hdr[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(c.hdr[:4]), nil
}

// roundTrip sends a request frame and processes the status header.
func (c *Client) roundTrip(req []byte) error {
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	return c.readStatus()
}

// ReadAt implements io.ReaderAt against the remote device.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning the connection — see beginOp).
func (c *Client) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if len(p) > MaxIOSize {
		return 0, fmt.Errorf("%w: read of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if c.pipe != nil {
		return c.pipe.read(ctx, p, off)
	}
	if err := c.beginOp(ctx); err != nil {
		return 0, err
	}
	n, err := c.read(p, off)
	return n, c.endOp(ctx, err)
}

// read runs the OpRead exchange; the caller holds the op via beginOp.
func (c *Client) read(p []byte, off int64) (int, error) {
	c.hdr[0] = OpRead
	binary.BigEndian.PutUint64(c.hdr[1:9], uint64(off))
	binary.BigEndian.PutUint32(c.hdr[9:13], uint32(len(p)))
	if err := c.roundTrip(c.hdr[:13]); err != nil {
		return 0, err
	}
	m, err := c.readUint32()
	if err != nil {
		return 0, err
	}
	if int(m) != len(p) {
		return 0, fmt.Errorf("%w: server returned %d bytes for a %d-byte read", ErrProtocol, m, len(p))
	}
	return io.ReadFull(c.conn, p)
}

// ReadV gathers len(vecs) ranges in one round trip (OpReadV), filling
// dst[i] (which must have length vecs[i].Len) with range i. The total
// length is bounded by MaxIOSize and the range count by MaxVecCount;
// split larger gathers into batches.
func (c *Client) ReadV(vecs []Vec, dst [][]byte) error {
	return c.ReadVCtx(context.Background(), vecs, dst)
}

// ReadVCtx is ReadV with cancellation: ctx interrupts the exchange even
// mid-frame (poisoning the connection — see beginOp). With FeatureCRC
// negotiated the gather travels as OpReadVC and every range is verified
// against its carried CRC-32C as it lands in dst; a mismatch is
// reported as a CRCError after the full response is consumed, so the
// connection stays usable and the caller can fail over to a replica.
func (c *Client) ReadVCtx(ctx context.Context, vecs []Vec, dst [][]byte) error {
	if len(vecs) != len(dst) {
		return fmt.Errorf("blockserver: ReadV has %d ranges but %d buffers", len(vecs), len(dst))
	}
	if len(vecs) == 0 {
		return nil
	}
	if len(vecs) > MaxVecCount {
		return fmt.Errorf("%w: %d ranges exceeds limit %d", ErrProtocol, len(vecs), MaxVecCount)
	}
	var total int64
	for i, v := range vecs {
		if v.Len < 0 || len(dst[i]) != v.Len {
			return fmt.Errorf("blockserver: ReadV buffer %d has %d bytes for a %d-byte range", i, len(dst[i]), v.Len)
		}
		total += int64(v.Len)
	}
	if total > MaxIOSize {
		return fmt.Errorf("%w: gather of %d bytes exceeds limit", ErrProtocol, total)
	}
	if c.pipe != nil {
		return c.pipe.readV(ctx, vecs, dst, total)
	}
	if err := c.beginOp(ctx); err != nil {
		return err
	}
	return c.endOp(ctx, c.readV(vecs, dst, total))
}

// readV runs the gather exchange; the caller holds the op via beginOp.
// Payloads land directly in the caller's dst slices — the client never
// copies them through an intermediate buffer.
func (c *Client) readV(vecs []Vec, dst [][]byte, total int64) error {
	op, crcMode := OpReadV, false
	if c.features&FeatureCRC != 0 {
		op, crcMode = OpReadVC, true
	}
	req := c.growFrame(5 + vecHdrSize*len(vecs))
	req[0] = op
	binary.BigEndian.PutUint32(req[1:5], uint32(len(vecs)))
	for i, v := range vecs {
		putVecHdr(req[5+vecHdrSize*i:], v)
	}
	if err := c.roundTrip(req); err != nil {
		return err
	}
	m, err := c.readUint32()
	if err != nil {
		return err
	}
	if int64(m) != total {
		return fmt.Errorf("%w: server returned %d bytes for a %d-byte gather", ErrProtocol, m, total)
	}
	if crcMode {
		raw := c.growFrame(4 * len(vecs))
		if _, err := io.ReadFull(c.conn, raw); err != nil {
			return err
		}
		if cap(c.crcs) < len(vecs) {
			c.crcs = make([]uint32, len(vecs))
		}
		c.crcs = c.crcs[:len(vecs)]
		for i := range vecs {
			c.crcs[i] = binary.BigEndian.Uint32(raw[4*i:])
		}
	}
	// On a CRC mismatch keep consuming the remaining ranges: the frame
	// must be fully drained for the stream to stay synchronized.
	var crcErr error
	for i, d := range dst {
		if _, err := io.ReadFull(c.conn, d); err != nil {
			return err
		}
		if crcMode && crcErr == nil {
			if got := crc32c.Sum(d); got != c.crcs[i] {
				crcErr = &CRCError{Range: i, Want: c.crcs[i], Got: got}
			}
		}
	}
	return crcErr
}

// WriteAt implements io.WriterAt against the remote device.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx is WriteAt with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning the connection — see beginOp).
func (c *Client) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if len(p) > MaxIOSize {
		return 0, fmt.Errorf("%w: write of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if c.pipe != nil {
		if err := c.pipe.write(ctx, p, off); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	if err := c.beginOp(ctx); err != nil {
		return 0, err
	}
	if err := c.endOp(ctx, c.write(p, off)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// write runs the OpWrite exchange; the caller holds the op via beginOp.
func (c *Client) write(p []byte, off int64) error {
	c.hdr[0] = OpWrite
	binary.BigEndian.PutUint64(c.hdr[1:9], uint64(off))
	binary.BigEndian.PutUint32(c.hdr[9:13], uint32(len(p)))
	// Vectored write (writev on TCP) sends header + payload in one frame
	// without copying the payload into a request buffer. c.nb is the
	// persistent Buffers header so WriteTo's consuming reslice does not
	// force a per-op allocation.
	c.bufs = append(c.bufs[:0], c.hdr[:13], p)
	c.nb = net.Buffers(c.bufs)
	if _, err := c.nb.WriteTo(c.conn); err != nil {
		return err
	}
	return c.readStatus()
}

// WriteV scatters len(vecs) ranges in one round trip (OpWriteV),
// writing data[i] (which must have length vecs[i].Len) at vecs[i].Off.
// See WriteVCtx for the partial-success contract.
func (c *Client) WriteV(vecs []Vec, data [][]byte) (int, error) {
	return c.WriteVCtx(context.Background(), vecs, data)
}

// WriteVCtx is WriteV with cancellation: ctx interrupts the exchange
// even mid-frame (poisoning the connection — see beginOp). With
// FeatureCRC negotiated the scatter travels as OpWriteVC, each range
// carrying the CRC-32C of its payload (computed during the writev
// gather); a server-side mismatch comes back as a CRCError with the
// connection still usable.
//
// It returns applied, the number of leading ranges the server durably
// applied. On a clean exchange applied == len(vecs). On a RemoteError
// or CRCError the server rejected range `applied` — ranges [0, applied)
// are durable — and the connection remains usable. On transport,
// framing, or cancellation errors applied is 0: the server may have
// applied a prefix, but the client cannot know which, so nothing from
// the exchange may be credited.
func (c *Client) WriteVCtx(ctx context.Context, vecs []Vec, data [][]byte) (int, error) {
	if len(vecs) != len(data) {
		return 0, fmt.Errorf("blockserver: WriteV has %d ranges but %d buffers", len(vecs), len(data))
	}
	if len(vecs) == 0 {
		return 0, nil
	}
	if len(vecs) > MaxVecCount {
		return 0, fmt.Errorf("%w: %d ranges exceeds limit %d", ErrProtocol, len(vecs), MaxVecCount)
	}
	var total int64
	for i, v := range vecs {
		if v.Len < 0 || len(data[i]) != v.Len {
			return 0, fmt.Errorf("blockserver: WriteV buffer %d has %d bytes for a %d-byte range", i, len(data[i]), v.Len)
		}
		total += int64(v.Len)
	}
	if total > MaxIOSize {
		return 0, fmt.Errorf("%w: scatter of %d bytes exceeds limit", ErrProtocol, total)
	}
	if c.pipe != nil {
		return c.pipe.writeV(ctx, vecs, data)
	}
	if err := c.beginOp(ctx); err != nil {
		return 0, err
	}
	applied, err := c.writeV(vecs, data)
	return applied, c.endOp(ctx, err)
}

// writeV runs the scatter exchange; the caller holds the op via
// beginOp. All range headers are packed into the client's frame scratch
// and interleaved with the payload slices in a single vectored send
// (writev on TCP), so the payloads are never copied client-side.
func (c *Client) writeV(vecs []Vec, data [][]byte) (int, error) {
	op, hsz, crcMode := OpWriteV, vecHdrSize, false
	if c.features&FeatureCRC != 0 {
		op, hsz, crcMode = OpWriteVC, vecHdrCRCSize, true
	}
	hdrs := c.growFrame(5 + hsz*len(vecs))
	hdrs[0] = op
	binary.BigEndian.PutUint32(hdrs[1:5], uint32(len(vecs)))
	if cap(c.bufs) < 2*len(vecs) {
		c.bufs = make([][]byte, 0, 2*len(vecs))
	}
	bufs := c.bufs[:0]
	start, at := 0, 5
	for i, v := range vecs {
		putVecHdr(hdrs[at:], v)
		if crcMode {
			binary.BigEndian.PutUint32(hdrs[at+12:], crc32c.Sum(data[i]))
		}
		at += hsz
		bufs = append(bufs, hdrs[start:at], data[i])
		start = at
	}
	c.bufs = bufs
	c.nb = net.Buffers(bufs)
	if _, err := c.nb.WriteTo(c.conn); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(c.conn, c.hdr[:1]); err != nil {
		return 0, err
	}
	switch c.hdr[0] {
	case statusOK:
		m, err := c.readUint32()
		if err != nil {
			return 0, err
		}
		if int(m) != len(vecs) {
			return 0, fmt.Errorf("%w: server applied %d of %d scatter ranges without error", ErrProtocol, m, len(vecs))
		}
		return len(vecs), nil
	case statusCRC:
		// failed(4) | want(4) | got(4): the leading `failed` ranges are
		// durable, range `failed` was rejected as corrupt in flight.
		if _, err := io.ReadFull(c.conn, c.hdr[:12]); err != nil {
			return 0, err
		}
		f := binary.BigEndian.Uint32(c.hdr[:])
		if int64(f) >= int64(len(vecs)) {
			return 0, fmt.Errorf("%w: failed-range index %d beyond %d ranges", ErrProtocol, f, len(vecs))
		}
		return int(f), &CRCError{
			Range: int(f),
			Want:  binary.BigEndian.Uint32(c.hdr[4:]),
			Got:   binary.BigEndian.Uint32(c.hdr[8:]),
			Write: true,
		}
	default:
		// Extended error response: failed(4) | len(4) | message.
		f, err := c.readUint32()
		if err != nil {
			return 0, err
		}
		if int64(f) >= int64(len(vecs)) {
			return 0, fmt.Errorf("%w: failed-range index %d beyond %d ranges", ErrProtocol, f, len(vecs))
		}
		n, err := c.readUint32()
		if err != nil {
			return 0, err
		}
		if n > 1<<16 {
			return 0, fmt.Errorf("%w: oversized error message (%d bytes)", ErrProtocol, n)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.conn, msg); err != nil {
			return 0, err
		}
		return int(f), &RemoteError{Msg: string(msg)}
	}
}

// CrcV fetches freshly recomputed CRC-32Cs of len(vecs) store ranges in
// one round trip (OpCrcV), filling out[i] with range i's checksum. The
// server reads the ranges from its store and checksums them — it never
// serves its write-time sidecar here — so the result reflects the bytes
// as they are now, which is what lets Volume.Scrub compare replicas
// without shipping the data. Returns ErrNoCRC (before touching the
// wire) when the connection did not negotiate FeatureCRC.
func (c *Client) CrcV(ctx context.Context, vecs []Vec, out []uint32) error {
	if c.features&FeatureCRC == 0 {
		return ErrNoCRC
	}
	if len(vecs) != len(out) {
		return fmt.Errorf("blockserver: CrcV has %d ranges but %d slots", len(vecs), len(out))
	}
	if len(vecs) == 0 {
		return nil
	}
	if _, err := checkVecs(vecs); err != nil {
		return err
	}
	if c.pipe != nil {
		return c.pipe.crcV(ctx, vecs, out)
	}
	if err := c.beginOp(ctx); err != nil {
		return err
	}
	return c.endOp(ctx, c.crcV(vecs, out))
}

func (c *Client) crcV(vecs []Vec, out []uint32) error {
	req := c.growFrame(5 + vecHdrSize*len(vecs))
	req[0] = OpCrcV
	binary.BigEndian.PutUint32(req[1:5], uint32(len(vecs)))
	for i, v := range vecs {
		putVecHdr(req[5+vecHdrSize*i:], v)
	}
	if err := c.roundTrip(req); err != nil {
		return err
	}
	raw := c.growFrame(4 * len(vecs))
	if _, err := io.ReadFull(c.conn, raw); err != nil {
		return err
	}
	for i := range out {
		out[i] = binary.BigEndian.Uint32(raw[4*i:])
	}
	return nil
}

// Size returns the remote device's logical capacity.
func (c *Client) Size() (int64, error) {
	if c.pipe != nil {
		op, err := c.pipe.mgmt(context.Background(), OpSize, nil)
		if err != nil {
			return 0, err
		}
		v := op.u64
		putPipeOp(op)
		return int64(v), nil
	}
	var v uint64
	err := c.do(context.Background(), func() error {
		c.hdr[0] = OpSize
		if err := c.roundTrip(c.hdr[:1]); err != nil {
			return err
		}
		var err error
		v, err = readUint64(c.conn)
		return err
	})
	return int64(v), err
}

// FailDisk marks a remote disk failed.
func (c *Client) FailDisk(id raid.DiskID) error { return c.diskOp(OpFail, id) }

// Rebuild reconstructs a remote failed disk.
func (c *Client) Rebuild(id raid.DiskID) error { return c.diskOp(OpRebuild, id) }

func (c *Client) diskOp(op byte, id raid.DiskID) error {
	if c.pipe != nil {
		var extra [5]byte
		extra[0] = byte(id.Role)
		binary.BigEndian.PutUint32(extra[1:], uint32(id.Index))
		res, err := c.pipe.mgmt(context.Background(), op, extra[:])
		if err != nil {
			return err
		}
		putPipeOp(res)
		return nil
	}
	return c.do(context.Background(), func() error {
		c.hdr[0] = op
		c.hdr[1] = byte(id.Role)
		binary.BigEndian.PutUint32(c.hdr[2:6], uint32(id.Index))
		return c.roundTrip(c.hdr[:6])
	})
}

// Scrub runs a remote consistency scrub.
func (c *Client) Scrub() error {
	if c.pipe != nil {
		op, err := c.pipe.mgmt(context.Background(), OpScrub, nil)
		if err != nil {
			return err
		}
		putPipeOp(op)
		return nil
	}
	return c.do(context.Background(), func() error {
		c.hdr[0] = OpScrub
		return c.roundTrip(c.hdr[:1])
	})
}

// Health fetches the remote service counters and failed-disk list.
func (c *Client) Health() (dev.Health, []raid.DiskID, error) {
	if c.pipe != nil {
		op, err := c.pipe.mgmt(context.Background(), OpHealth, nil)
		if err != nil {
			return dev.Health{}, nil, err
		}
		h, failed := op.health, op.failed
		putPipeOp(op)
		return h, failed, nil
	}
	var h dev.Health
	var failed []raid.DiskID
	err := c.do(context.Background(), func() error {
		c.hdr[0] = OpHealth
		if err := c.roundTrip(c.hdr[:1]); err != nil {
			return err
		}
		var vals [5]int64
		for i := range vals {
			v, err := readUint64(c.conn)
			if err != nil {
				return err
			}
			vals[i] = int64(v)
		}
		nFailed, err := readUint32(c.conn)
		if err != nil {
			return err
		}
		if nFailed > 1<<16 {
			return fmt.Errorf("%w: implausible failed-disk count %d", ErrProtocol, nFailed)
		}
		failed = make([]raid.DiskID, 0, nFailed)
		for i := uint32(0); i < nFailed; i++ {
			id, err := readDiskID(c.conn)
			if err != nil {
				return err
			}
			failed = append(failed, id)
		}
		h = dev.Health{
			ElementsRead:    vals[0],
			ElementsWritten: vals[1],
			DegradedReads:   vals[2],
			ParityFallbacks: vals[3],
			StripesRebuilt:  vals[4],
		}
		return nil
	})
	if err != nil {
		return dev.Health{}, nil, err
	}
	return h, failed, nil
}
