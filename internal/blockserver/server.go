package blockserver

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"shiftedmirror/internal/obs"
)

// Store is the served surface: raw positioned I/O over one disk's byte
// space (dev.MemStore, dev.FileStore, a fault-injection wrapper) —
// internal/cluster serves one disk per backend this way.
type Store interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
}

// DirectStore is a Store that can hand out its backing memory, letting
// the server skip the intermediate copy on the wire path: OpReadV
// gathers writev directly from store memory, and OpWriteV scatters land
// by reading the socket straight into the store region. dev.MemStore
// implements it; file- or rate-limited stores do not and are served
// through the pooled-buffer path.
type DirectStore interface {
	Store
	// Slice returns the store's memory for [off, off+n), or false when
	// that span cannot be addressed directly (out of bounds, not
	// memory-resident, ...). A returned slice must stay valid for the
	// lifetime of the store and alias the bytes ReadAt/WriteAt see.
	Slice(off, n int64) ([]byte, bool)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMetrics attaches a Metrics collector: the server records
// per-opcode counts, latencies, payload bytes, and connection
// lifecycle into it. One collector may be shared across servers.
func WithMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithTracer attaches a per-operation trace hook; the server emits one
// obs.Event per request served. The tracer runs inline on the data
// path, so it must be fast and concurrency-safe.
func WithTracer(t obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithReadRate caps the server's aggregate read bandwidth at
// bytesPerSec, serializing transfers the way a single spindle does. It
// models the bounded read bandwidth of one disk when many in-memory
// backends share a machine (examples/clusterrecon); 0 means unlimited.
func WithReadRate(bytesPerSec float64) ServerOption {
	return func(s *Server) {
		if bytesPerSec > 0 {
			s.readRate = &rateLimiter{perByte: time.Duration(float64(time.Second) / bytesPerSec)}
		}
	}
}

// WithCRC enables the end-to-end integrity feature: the server grants
// FeatureCRC to negotiating clients, verifies the CRC-32C carried on
// every OpWriteVC range, and keeps a per-block CRC sidecar (4 bytes +
// 1 bit per block of store) so OpReadVC can hand out write-time
// checksums — letting a client catch corruption that happened in the
// store itself, not just on the wire. blockSize is the sidecar
// granularity and should match the cluster element size; values <= 0
// leave the feature off.
func WithCRC(blockSize int64) ServerOption {
	return func(s *Server) {
		if blockSize > 0 {
			s.crcBlock = blockSize
		}
	}
}

// rateLimiter spaces transfers so that aggregate throughput stays at the
// configured rate: each transfer reserves a completion slot after all
// earlier ones, exactly like requests queueing at one disk.
type rateLimiter struct {
	perByte time.Duration
	mu      sync.Mutex
	next    time.Time
}

func (l *rateLimiter) wait(n int) {
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	due := l.next.Add(time.Duration(n) * l.perByte)
	l.next = due
	l.mu.Unlock()
	time.Sleep(time.Until(due))
}

// Server exports one store over a listener. Connections are handled
// concurrently; the store's own locking provides consistency.
type Server struct {
	store    Store
	size     int64       // store.Size(), fixed for the server's lifetime; every decoded range is checked against it
	direct   DirectStore // non-nil = zero-copy wire path enabled
	readRate *rateLimiter
	metrics  *Metrics   // nil = no metric collection
	tracer   obs.Tracer // nil = no per-op tracing

	// CRC sidecar (WithCRC): one CRC-32C plus a validity bit per
	// crcBlock-sized block of store, maintained inline by every write
	// path and handed out by OpReadVC for exactly-one-block ranges.
	crcBlock int64 // 0 = CRC feature off
	crcMu    sync.Mutex
	crcSums  []uint32
	crcValid []uint64 // bitmap, 1 = crcSums entry matches store content
	// crcBusy tracks blocks with a store write in flight (between
	// beginWrite and endWrite/abortWrite), so overlapping writers from
	// different connections can be detected and denied sidecar
	// publication — see endWrite. Stored by value: entries churn once
	// per write, and a pointer map would put an allocation on the
	// otherwise allocation-free wire path.
	crcBusy map[int64]blockWrite

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewStoreServer wraps a store (one disk) for serving. The server knows
// nothing of the volume the disk belongs to: failure handling, rebuild
// and scrub are the cluster layer's.
func NewStoreServer(store Store, opts ...ServerOption) *Server {
	s := &Server{store: store, conns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	s.initWire()
	return s
}

// initWire finishes wire-path setup once options are applied: direct
// (zero-copy) serving when the store exposes memory and no rate limit
// is modeling a spindle, and the CRC sidecar when WithCRC asked for it.
func (s *Server) initWire() {
	s.size = s.store.Size()
	if s.readRate == nil {
		s.direct, _ = s.store.(DirectStore)
	}
	if s.crcBlock > 0 {
		blocks := (s.size + s.crcBlock - 1) / s.crcBlock
		s.crcSums = make([]uint32, blocks)
		s.crcValid = make([]uint64, (blocks+63)/64)
		s.crcBusy = map[int64]blockWrite{}
	}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral test port) and returns the bound address. Serving happens on
// background goroutines until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("blockserver: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.metrics != nil {
			s.metrics.conns.Inc()
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and tears down every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// connScratch is the synchronous loop's per-connection state: the frame
// reader, one request, one reply and the writev header, reused for
// every exchange — a connection serves one request at a time — so
// steady-state requests allocate nothing.
type connScratch struct {
	fr  frameReader
	req request
	rp  reply
	// nb is the persistent writev header: net.Buffers.WriteTo consumes
	// its receiver, so it is rebuilt from the reply before every use — but
	// keeping it a field stops the slice header escaping per call.
	nb net.Buffers
}

// serveConn is the synchronous scheduler: one request at a time,
// decoded, applied and answered in order on this goroutine, untagged. It
// also owns feature negotiation, which is only valid here — and hands
// the connection to the pipelined scheduler when that was granted.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	scr := &connScratch{fr: newFrameReader(conn)}
	fr, req, rp := &scr.fr, &scr.req, &scr.rp
	for {
		op, err := fr.first()
		if err != nil {
			return
		}
		start := s.clock()
		rp.acct = opAcct{}
		var pipelined, pending bool
		if op == OpFeatures {
			pipelined, err = s.negotiate(fr, req, rp)
		} else if pending, err = s.decode(fr, op, req, rp); pending {
			s.apply(req, rp)
		}
		if err == nil {
			// Untagged framing: the head goes out from its status byte.
			rp.bufs[0] = rp.bufs[0][tagRoom:]
			if len(rp.bufs) == 1 {
				_, err = conn.Write(rp.bufs[0])
			} else {
				scr.nb = net.Buffers(rp.bufs)
				_, err = scr.nb.WriteTo(conn)
			}
		}
		s.account(op, &rp.acct, start, err)
		rp.reset()
		if err != nil {
			return
		}
		if pipelined {
			// A client may send tagged frames right behind OpFeatures; what
			// the frame reader already holds of them goes along.
			s.servePipelined(conn, fr.handoff())
			return
		}
	}
}

// negotiate answers OpFeatures: the granted subset of the client's
// requested flags, plus the server's CRC block size. It reports whether
// FeaturePipeline was granted, in which case the connection switches to
// the tagged framing once the reply is on the wire.
func (s *Server) negotiate(r io.Reader, req *request, rp *reply) (pipelined bool, err error) {
	if _, err := io.ReadFull(r, req.hdr[:1]); err != nil {
		return false, err
	}
	// Pipelining needs no server-side resources beyond the per-connection
	// goroutines, so it is granted whenever asked for.
	grant := req.hdr[0] & FeaturePipeline
	if s.crcBlock > 0 {
		grant |= req.hdr[0] & FeatureCRC
	}
	p := rp.begin(statusOK, 5)
	p[0] = grant
	binary.BigEndian.PutUint32(p[1:], uint32(s.crcBlock))
	return grant&FeaturePipeline != 0, nil
}

// clock reads the time a request started, when anyone will ask.
func (s *Server) clock() time.Time {
	if s.metrics == nil && s.tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// account folds one request into the metrics and the tracer; with
// neither attached it costs two nil checks. err is the error that tore
// the connection, if one did; an error answered on a healthy connection
// is in acct.
func (s *Server) account(op byte, acct *opAcct, start time.Time, err error) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	d := time.Since(start)
	if s.metrics != nil {
		s.metrics.record(op, acct, d, err)
	}
	if s.tracer != nil {
		ev := obs.Event{Op: opNames[opSlot(op)], Bytes: acct.in + acct.out, Dur: d, Err: err}
		if ev.Err == nil {
			ev.Err = acct.remoteErr
		}
		s.tracer.Trace(ev)
	}
}
