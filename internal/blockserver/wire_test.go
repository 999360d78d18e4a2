package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"shiftedmirror/internal/crc32c"
	"shiftedmirror/internal/dev"
)

// This file tests the wire codec where it is shared: hand-written bad
// frames run as one table over both transports (and both store paths),
// the offset-overflow regression, and the fuzz targets for the two
// decoders, seeded from the same table.

// wirePeer speaks the protocol by hand on a raw connection, in either
// framing, so one hand-written frame can be thrown at both transports.
type wirePeer struct {
	t         *testing.T
	conn      net.Conn
	pipelined bool
	tag       uint32
	op        byte // the last request's opcode: it decides the error layout
}

// dialPeer opens a raw connection; pipelined negotiates FeaturePipeline
// first, after which every frame travels tagged.
func dialPeer(t *testing.T, addr string, pipelined bool) *wirePeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &wirePeer{t: t, conn: conn}
	if pipelined {
		p.send([]byte{OpFeatures, FeaturePipeline})
		var grant [5]byte
		if err := p.status(); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, grant[:]); err != nil || grant[0]&FeaturePipeline == 0 {
			t.Fatalf("pipeline not granted: %v %v", grant, err)
		}
		p.pipelined = true
	}
	return p
}

// send writes frame (op | payload), slipping a fresh tag in behind the
// opcode on a pipelined connection.
func (p *wirePeer) send(frame []byte) {
	p.t.Helper()
	p.op = frame[0]
	if p.pipelined {
		p.tag += 7
		tagged := append([]byte{frame[0]}, binary.BigEndian.AppendUint32(nil, p.tag)...)
		frame = append(tagged, frame[1:]...)
	}
	if _, err := p.conn.Write(frame); err != nil {
		p.t.Fatal(err)
	}
}

// status reads the next response's header — checking the tag on a
// pipelined connection — and returns the verdict it carries. An OK
// response's payload stays on the connection for the caller.
func (p *wirePeer) status() error {
	p.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if p.pipelined {
		var tag [4]byte
		if _, err := io.ReadFull(p.conn, tag[:]); err != nil {
			return err
		}
		if got := binary.BigEndian.Uint32(tag[:]); got != p.tag {
			p.t.Fatalf("response for tag %d, want %d", got, p.tag)
		}
	}
	d := decoder{r: p.conn}
	if _, err := io.ReadFull(p.conn, d.hdr[:1]); err != nil || d.hdr[0] == statusOK {
		return err
	}
	cl := call{op: p.op, nvecs: MaxVecCount}
	if err := d.failure(&cl, d.hdr[0]); err != nil {
		return err
	}
	return cl.err
}

// torn requires that the server hung up without answering.
func (p *wirePeer) torn() {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := p.conn.Read(make([]byte, 1)); err == nil {
		p.t.Fatalf("server answered with %d bytes, want a torn connection", n)
	}
}

// eachTransport runs fn once per framing, as subtests.
func eachTransport(t *testing.T, fn func(t *testing.T, pipelined bool)) {
	t.Run("sync", func(t *testing.T) { fn(t, false) })
	t.Run("pipelined", func(t *testing.T) { fn(t, true) })
}

// Frame builders for hand-written requests.
func vecFrame(op byte, vecs ...Vec) []byte {
	f := binary.BigEndian.AppendUint32([]byte{op}, uint32(len(vecs)))
	for _, v := range vecs {
		f = binary.BigEndian.AppendUint64(f, uint64(v.Off))
		f = binary.BigEndian.AppendUint32(f, uint32(v.Len))
	}
	return f
}

// oneVecFrame is vecFrame for a single range at offset 0 whose declared
// length need not fit an int (Vec.Len is 32 bits wide on 32-bit hosts).
func oneVecFrame(op byte, n uint32) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{op}, 1), rangeFrame(0, 0, n, nil)[1:]...)
}

func rangeFrame(op byte, off int64, n uint32, payload []byte) []byte {
	f := binary.BigEndian.AppendUint64([]byte{op}, uint64(off))
	return append(binary.BigEndian.AppendUint32(f, n), payload...)
}

// scatterFrame builds OpWriteV, or OpWriteVC with each payload's CRC.
func scatterFrame(op byte, vecs []Vec, payloads ...[]byte) []byte {
	f := binary.BigEndian.AppendUint32([]byte{op}, uint32(len(vecs)))
	for i, v := range vecs {
		f = binary.BigEndian.AppendUint64(f, uint64(v.Off))
		f = binary.BigEndian.AppendUint32(f, uint32(v.Len))
		if op == OpWriteVC {
			f = binary.BigEndian.AppendUint32(f, crc32c.Sum(payloads[i]))
		}
		f = append(f, payloads[i]...)
	}
	return f
}

type verdict int

const (
	wantTorn   verdict = iota // framing violation: hung up, no answer
	wantRemote                // remote error, stream synchronized
	wantCRC                   // CRC verdict, stream synchronized
)

// wireStoreSize and wireCRCBlock size the store behind the bad-frame
// table and the fuzz targets.
const (
	wireStoreSize = 4096
	wireCRCBlock  = 128
)

// farOff + 100 wraps int64: the bounds check must not be fooled.
const farOff = math.MaxInt64 - 10

type wireCase struct {
	name  string
	frame []byte // op | payload, untagged
	want  verdict
}

// Every hand-written bad frame, by the test that runs it.
var (
	unknownOpCases = []wireCase{
		// The server must hang up rather than guess.
		{"unknown opcode", []byte{0xFF}, wantTorn},
		{"opcode zero", []byte{0}, wantTorn},
	}
	// The retired management opcodes of the whole-device server, each
	// with the payload it once carried: torn like any unknown opcode.
	retiredOpCases = []wireCase{
		{"retired fail", []byte{4, 0, 0, 0, 0, 1}, wantTorn},
		{"retired rebuild", []byte{5, 0, 0, 0, 0, 1}, wantTorn},
		{"retired scrub", []byte{6}, wantTorn},
		{"retired health", []byte{7}, wantTorn},
	}
	gatherCases = []wireCase{
		{"zero count", vecFrame(OpReadV), wantTorn},
		{"oversized count", binary.BigEndian.AppendUint32([]byte{OpReadV}, MaxVecCount+1), wantTorn},
		// Never a huge allocation, and never the negative-total panic
		// that int(uint32) arithmetic allowed on 32-bit hosts.
		{"oversized range", oneVecFrame(OpReadV, 0xFFFFFFFF), wantRemote},
		{"total past limit", vecFrame(OpReadV, Vec{Len: 30 << 20}, Vec{Len: 30 << 20}, Vec{Len: 30 << 20}), wantRemote},
		{"read past the end", rangeFrame(OpRead, wireStoreSize-8, 16, nil), wantRemote},
		{"read wrapping offset", rangeFrame(OpRead, farOff, 100, nil), wantRemote},
		{"oversized read", rangeFrame(OpRead, 0, MaxIOSize+1, nil), wantRemote},
		{"gather wrapping offset", vecFrame(OpReadV, Vec{Off: 0, Len: 8}, Vec{Off: farOff, Len: 100}), wantRemote},
		{"gather negative offset", vecFrame(OpReadV, Vec{Off: -1, Len: 8}), wantRemote},
		{"crc gather wrapping offset", vecFrame(OpReadVC, Vec{Off: farOff, Len: 100}), wantRemote},
		{"checksum wrapping offset", vecFrame(OpCrcV, Vec{Off: farOff, Len: 100}), wantRemote},
	}
	scatterCases = []wireCase{
		// Bad counts and oversized lengths make the payload boundary
		// untrustworthy, so the server must tear the connection down
		// without answering (unlike a gather, whose fixed-size header
		// block can be consumed and a remote error returned).
		{"zero count", vecFrame(OpWriteV), wantTorn},
		{"oversized count", binary.BigEndian.AppendUint32([]byte{OpWriteV}, MaxVecCount+1), wantTorn},
		{"oversized range", oneVecFrame(OpWriteV, 0xFFFFFFFF), wantTorn},
		// Range 0 is tiny and fully transferred (it rewrites what the
		// store already holds); range 1 individually fits (exactly
		// MaxIOSize) but pushes the int64 total past the limit, so the
		// tear happens at its header — before the client has shipped
		// 64 MiB.
		{"total past limit as int64", func() []byte {
			f := scatterFrame(OpWriteV, []Vec{{Off: 0, Len: 16}}, bytes.Repeat([]byte{0xEE}, 16))
			binary.BigEndian.PutUint32(f[1:], 2) // a second range follows
			return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(f, 0), MaxIOSize)
		}(), wantTorn},
		{"oversized write", rangeFrame(OpWrite, 0, MaxIOSize+1, nil), wantTorn},
		// An out-of-bounds range is a store-level error: its payload is
		// drained, the answer is a remote error, the stream lives.
		{"write past the end", rangeFrame(OpWrite, wireStoreSize-8, 16, make([]byte, 16)), wantRemote},
		{"write wrapping offset", rangeFrame(OpWrite, farOff, 100, make([]byte, 100)), wantRemote},
		{"scatter wrapping offset", scatterFrame(OpWriteV, []Vec{{Off: farOff, Len: 100}, {Off: 0, Len: 8}},
			make([]byte, 100), []byte("drained!")), wantRemote},
		{"crc scatter wrapping offset", scatterFrame(OpWriteVC, []Vec{{Off: farOff, Len: 100}}, make([]byte, 100)), wantRemote},
		{"crc mismatch", func() []byte {
			f := scatterFrame(OpWriteVC, []Vec{{Off: 0, Len: wireCRCBlock}}, make([]byte, wireCRCBlock))
			f[5+12] ^= 1 // the carried checksum
			return f
		}(), wantCRC},
	}
)

// startWireServer serves a small MemStore with a CRC sidecar, through
// its memory or hidden behind the Store interface.
func startWireServer(t *testing.T, direct bool) (*Server, string, *dev.MemStore) {
	t.Helper()
	mem := dev.NewMemStore(wireStoreSize)
	var store Store = mem
	if !direct {
		store = opaqueStore{mem}
	}
	srv := NewStoreServer(store, WithCRC(wireCRCBlock))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String(), mem
}

// runWireCases throws every case at both transports and both store
// paths. A frame answered with an error must leave the stream
// synchronized (the next request on the same connection is served), a
// framing violation must tear the connection without an answer, the
// store must come through unscathed, and the server must still be
// serving afterwards.
func runWireCases(t *testing.T, cases []wireCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, pipelined bool) {
				for _, direct := range []bool{true, false} {
					srv, addr, mem := startWireServer(t, direct)
					sentinel := bytes.Repeat([]byte{0xEE}, wireStoreSize)
					if _, err := mem.WriteAt(sentinel, 0); err != nil {
						t.Fatal(err)
					}
					p := dialPeer(t, addr, pipelined)
					p.send(tc.frame)
					switch tc.want {
					case wantTorn:
						p.torn()
					case wantRemote, wantCRC:
						err := p.status()
						if (tc.want == wantRemote && !IsRemote(err)) || (tc.want == wantCRC && !IsCRC(err)) {
							t.Fatalf("direct=%v: answered %v", direct, err)
						}
						p.send([]byte{OpSize})
						var size [8]byte
						if err := p.status(); err != nil {
							t.Fatalf("direct=%v: stream out of step after the rejection: %v", direct, err)
						}
						if _, err := io.ReadFull(p.conn, size[:]); err != nil || binary.BigEndian.Uint64(size[:]) != wireStoreSize {
							t.Fatalf("direct=%v: size after the rejection: %v %v", direct, size, err)
						}
					}
					c, err := Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.Size(); err != nil {
						t.Fatalf("direct=%v: server wedged: %v", direct, err)
					}
					c.Close()
					// A rejected frame applied nothing. (A direct store
					// receives a CRC-mismatched range into its memory
					// before it can know — the documented zero-copy
					// tradeoff.) Close waits for the handler goroutines,
					// which orders their store accesses before this one.
					srv.Close()
					if got, _ := mem.Slice(0, wireStoreSize); !bytes.Equal(got, sentinel) && !(direct && tc.want == wantCRC) {
						t.Fatalf("direct=%v: rejected frame changed the store", direct)
					}
				}
			})
		})
	}
}

func TestMalformedRequestsDropConnection(t *testing.T) { runWireCases(t, unknownOpCases) }

// TestStoreServerRejectsManagement: bytes 4–7, the retired opcodes that
// once failed, rebuilt, scrubbed and reported on a served device, tear
// the connection like any unknown opcode — a server has no management
// surface, and the bytes mean nothing now.
func TestStoreServerRejectsManagement(t *testing.T) { runWireCases(t, retiredOpCases) }

func TestServerReadVRejectsOversizedRanges(t *testing.T) { runWireCases(t, gatherCases) }

func TestServerWriteVRejectsMalformedFrames(t *testing.T) { runWireCases(t, scatterCases) }

// TestOffsetOverflowRejected is the regression test for the remote
// crash: a range at Off = MaxInt64−10, Len = 100 used to wrap the
// server's Off+Len arithmetic and panic in the store's slice
// expression, killing the whole process. Through the stock client, on
// both transports and both opcode families, every data op must come
// back as a RemoteError, the same connection must serve the next op,
// and the server must still be serving.
func TestOffsetOverflowRejected(t *testing.T) {
	eachTransport(t, func(t *testing.T, pipelined bool) {
		for _, crc := range []bool{false, true} {
			_, addr, _ := startWireServer(t, true)
			var features byte
			if pipelined {
				features |= FeaturePipeline
			}
			if crc {
				features |= FeatureCRC
			}
			c, err := DialConfig(addr, Config{Features: features})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			ctx := context.Background()
			vecs, buf := []Vec{{Off: farOff, Len: 100}}, make([]byte, 100)
			ops := map[string]func() error{
				"ReadAt":  func() error { _, err := c.ReadAt(buf, farOff); return err },
				"WriteAt": func() error { _, err := c.WriteAt(buf, farOff); return err },
				"ReadV":   func() error { return c.ReadVCtx(ctx, vecs, [][]byte{buf}) },
				"WriteV": func() error {
					n, err := c.WriteVCtx(ctx, vecs, [][]byte{buf})
					if n != 0 {
						t.Errorf("WriteV credited %d ranges of a rejected scatter", n)
					}
					return err
				},
			}
			if crc {
				ops["CrcV"] = func() error { return c.CrcV(ctx, vecs, make([]uint32, 1)) }
			}
			for name, op := range ops {
				if err := op(); !IsRemote(err) {
					t.Fatalf("crc=%v %s at a wrapping offset: %v, want a remote error", crc, name, err)
				}
				if _, err := c.WriteAt([]byte("still here"), 0); err != nil {
					t.Fatalf("crc=%v: connection unusable after %s was rejected: %v", crc, name, err)
				}
			}
			fresh, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Size(); err != nil {
				t.Fatalf("server stopped serving: %v", err)
			}
			fresh.Close()
		}
	})
}

// --- fuzz targets -----------------------------------------------------

// guardStore is the fuzz targets' store: it notes any access outside
// [0, Size) before passing it on, and hides Slice unless direct.
type guardStore struct {
	mem      *dev.MemStore
	violated bool
}

func (g *guardStore) check(off, n int64) {
	if off < 0 || n < 0 || off > g.mem.Size()-n {
		g.violated = true
	}
}
func (g *guardStore) ReadAt(p []byte, off int64) (int, error) {
	g.check(off, int64(len(p)))
	return g.mem.ReadAt(p, off)
}
func (g *guardStore) WriteAt(p []byte, off int64) (int, error) {
	g.check(off, int64(len(p)))
	return g.mem.WriteAt(p, off)
}
func (g *guardStore) Size() int64 { return g.mem.Size() }

type directGuardStore struct{ *guardStore }

func (g directGuardStore) Slice(off, n int64) ([]byte, bool) {
	g.check(off, n)
	return g.mem.Slice(off, n)
}

// frameLen is the reference parser the request fuzzer checks stream
// synchronization against: the payload length (after the opcode) of a
// frame the server answers rather than tears. ok is false when the
// frame is cut short.
func frameLen(op byte, p []byte) (n int, ok bool) {
	u32 := func(at int) int {
		if at+4 > len(p) {
			ok = false
			return 0
		}
		return int(binary.BigEndian.Uint32(p[at:]))
	}
	ok = true
	switch op {
	case OpRead:
		n = vecHdrSize
	case OpWrite:
		n = vecHdrSize + u32(8)
	case OpReadV, OpReadVC, OpCrcV:
		n = 4 + vecHdrSize*u32(0)
	case OpWriteV, OpWriteVC:
		hdr := vecHdrSize
		if op == OpWriteVC {
			hdr = vecHdrCRCSize
		}
		count := u32(0)
		n = 4
		for i := 0; i < count && ok; i++ {
			n += hdr + u32(n+8)
		}
	}
	return n, ok && n <= len(p)
}

// fuzzChunks turns fuzz bytes into read sizes for a scriptedSource:
// 1–128 bytes, or multiples of 512 up to 64 KiB, so a frame arrives
// anywhere from a byte at a time to more than a frame buffer at once.
func fuzzChunks(b []byte) []int {
	chunks := make([]int, len(b))
	for i, c := range b {
		chunks[i] = int(c) + 1
		if c >= 0x80 {
			chunks[i] = int(c-0x7f) << 9
		}
	}
	return chunks
}

// nextFrame is the request queued behind a fuzzed frame on the frame
// reader's source; it must decode once the fuzzed frame was answered.
var nextFrame = vecFrame(OpReadV, Vec{Off: 0, Len: 16})

// replyBytes is what a reply puts on the synchronous wire.
func replyBytes(rp *reply) []byte {
	out := append([]byte{}, rp.bufs[0][tagRoom:]...)
	for _, b := range rp.bufs[1:] {
		out = append(out, b...)
	}
	return out
}

// fuzzStore is a guarded store of the fuzz targets' size, exposing its
// memory when direct.
func fuzzStore(direct bool) (*guardStore, *Server) {
	guard := &guardStore{mem: dev.NewMemStore(wireStoreSize)}
	var store Store = guard
	if direct {
		store = directGuardStore{guard}
	}
	return guard, NewStoreServer(store, WithCRC(wireCRCBlock))
}

// FuzzDecodeRequest feeds arbitrary bytes to the server's request
// decoder as a stream of untagged frames (the tagged framing runs the
// same decode after reading the tag), over both store paths. Whatever
// arrives, the decoder must not panic, must not touch the store outside
// [0, Size), and must leave the stream either torn or synchronized: a
// frame it answers was consumed exactly, and its reply is well-formed.
// Every frame also goes through the synchronous scheduler's frame
// reader, to a twin server, over a source that delivers it in
// fuzz-chosen chunks with another frame queued behind: the twin must
// reach the same verdict and reply, consume the frame exactly — the
// bytes pulled from the source less those left buffered — and then
// decode the frame behind it.
func FuzzDecodeRequest(f *testing.F) {
	for _, cases := range [][]wireCase{unknownOpCases, retiredOpCases, gatherCases, scatterCases} {
		for _, tc := range cases {
			if len(tc.frame) < 1<<16 {
				f.Add(tc.frame, []byte{})
			}
		}
	}
	good := scatterFrame(OpWriteVC, []Vec{{Off: 0, Len: 4}, {Off: wireCRCBlock, Len: wireCRCBlock}}, []byte("abcd"), make([]byte, wireCRCBlock))
	good = append(good, vecFrame(OpReadVC, Vec{Off: 0, Len: 8}, Vec{Off: wireCRCBlock, Len: wireCRCBlock})...)
	good = append(good, rangeFrame(OpWrite, 8, 4, []byte("efgh"))...)
	good = append(good, rangeFrame(OpRead, 0, 16, nil)...)
	good = append(good, vecFrame(OpCrcV, Vec{Off: 0, Len: 64})...)
	good = append(good, OpSize)
	f.Add(good, []byte{})
	f.Add(good, []byte{0, 4, 11, 0x80})
	f.Add(append(good, 4, 0, 0, 0, 0, 1), []byte{2}) // a retired opcode after served frames
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		for _, direct := range []bool{true, false} {
			guard, srv := fuzzStore(direct)
			twinGuard, twin := fuzzStore(direct)
			r := bytes.NewReader(stream)
			var req request
			var rp reply
			for r.Len() > 0 {
				op, _ := r.ReadByte()
				rest := stream[len(stream)-r.Len():]
				pending, err := srv.decode(r, op, &req, &rp)
				if err == nil && pending {
					srv.apply(&req, &rp)
				}
				frame := append([]byte{op}, rest[:len(rest)-r.Len()]...)
				twinDecode(t, twin, frame, err == nil, &rp, fuzzChunks(chunks))
				if err != nil {
					break // torn
				}
				if len(rp.bufs) == 0 || len(rp.bufs[0]) <= tagRoom || rp.bufs[0][tagRoom] > statusCRC {
					t.Fatalf("op %d answered with a malformed reply %v", op, rp.bufs)
				}
				if want, ok := frameLen(op, rest); !ok || len(rest)-r.Len() != want {
					t.Fatalf("op %d answered after consuming %d bytes of a %d-byte frame (complete=%v)",
						op, len(rest)-r.Len(), want, ok)
				}
				rp.reset()
			}
			if guard.violated || twinGuard.violated {
				t.Fatalf("direct=%v: store touched outside [0,%d)", direct, wireStoreSize)
			}
		}
	})
}

// twinDecode runs one frame the direct decode consumed through a frame
// reader to the twin server and holds it to the direct decode's
// outcome: torn when that tore (the source then holds only the bytes
// the direct decode read), else the same reply, the frame consumed
// exactly, and the frame queued behind it decoded.
func twinDecode(t *testing.T, twin *Server, frame []byte, answered bool, want *reply, chunks []int) {
	t.Helper()
	var req request
	var rp reply
	src := &scriptedSource{data: append([]byte{}, frame...), chunks: chunks}
	if answered {
		src.data = append(src.data, nextFrame...)
	}
	fr := newFrameReader(src)
	op, err := fr.first()
	if err != nil || op != frame[0] {
		t.Fatalf("frame reader's first byte %d, %v; want %d", op, err, frame[0])
	}
	pending, err := twin.decode(&fr, op, &req, &rp)
	if err == nil && pending {
		twin.apply(&req, &rp)
	}
	defer rp.reset()
	if (err == nil) != answered {
		t.Fatalf("op %d: through the frame reader the decode returned %v, directly answered=%v", op, err, answered)
	}
	if !answered {
		return
	}
	if got, want := replyBytes(&rp), replyBytes(want); !bytes.Equal(got, want) {
		t.Fatalf("op %d: through the frame reader the reply is %x, directly %x", op, got, want)
	}
	if consumed := src.pos - (fr.hi - fr.lo); consumed != len(frame) {
		t.Fatalf("op %d: the frame reader consumed %d bytes of a %d-byte frame", op, consumed, len(frame))
	}
	rp.reset()
	if op, err := fr.first(); err != nil || op != nextFrame[0] {
		t.Fatalf("the frame behind starts with %d, %v", op, err)
	}
	if pending, err := twin.decode(&fr, nextFrame[0], &req, &rp); err != nil || !pending || req.total != 16 {
		t.Fatalf("the frame behind: pending=%v total=%d %v", pending, req.total, err)
	}
}

// FuzzDecodeResponse feeds arbitrary bytes to the client's response
// decoder as the answer to a well-formed request of each opcode and
// shape. It must not panic or write outside the caller's buffers, a
// clean return must carry a verdict of a known kind and a credible
// applied count, and an abandoned call's buffers must stay untouched.
func FuzzDecodeResponse(f *testing.F) {
	ops := []byte{OpRead, OpWrite, OpSize, OpReadV, OpWriteV, OpFeatures, OpReadVC, OpWriteVC, OpCrcV, 0xFF}
	u32 := func(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
	const rangeLen = 8
	seed := func(op byte, n int, claimed bool, resp []byte) {
		f.Add(uint8(bytes.IndexByte(ops, op)), uint8(n-1), claimed, resp, []byte{})
	}
	// OK gather of two ranges, with and without CRCs (one of them wrong).
	body := []byte("01234567abcdefgh")
	seed(OpReadV, 2, true, append(u32([]byte{statusOK}, 16), body...))
	crcs := u32(u32(nil, crc32c.Sum(body[:8])), crc32c.Sum(body[8:])^1)
	seed(OpReadVC, 2, true, append(append(u32([]byte{statusOK}, 16), crcs...), body...))
	seed(OpReadVC, 2, false, append(append(u32([]byte{statusOK}, 16), crcs...), body...))
	seed(OpReadV, 2, true, u32([]byte{statusOK}, 17)) // wrong total
	// Scatter verdicts: applied count (right and wrong), CRC verdict,
	// extended error, and a failed index beyond the request.
	seed(OpWriteV, 3, true, u32([]byte{statusOK}, 3))
	seed(OpWriteV, 3, true, u32([]byte{statusOK}, 2))
	seed(OpWriteVC, 3, true, u32(u32(u32([]byte{statusCRC}, 1), 7), 9))
	seed(OpWriteV, 3, true, append(u32(u32([]byte{statusErr}, 2), 4), "full"...))
	seed(OpWriteV, 3, true, append(u32(u32([]byte{statusErr}, 3), 4), "full"...))
	// Plain errors: a short message, and a length past the sanity limit.
	seed(OpRead, 1, true, append(u32([]byte{statusErr}, 3), "bad"...))
	seed(OpRead, 1, true, u32([]byte{statusErr}, 1<<16+1))
	// Management payloads, whole and cut short.
	seed(OpSize, 1, true, append([]byte{statusOK}, make([]byte, 8)...))
	seed(OpSize, 1, true, append([]byte{statusOK}, make([]byte, 5)...))
	seed(OpFeatures, 1, true, []byte{statusOK, FeatureCRC, 0, 0, 0, 128})
	seed(OpCrcV, 2, true, u32(u32([]byte{statusOK}, 1), 2))
	// Checksums answering a call its caller abandoned.
	seed(OpCrcV, 2, false, u32(u32([]byte{statusOK}, 1), 2))
	f.Fuzz(func(t *testing.T, opIdx, count uint8, claimed bool, resp, chunks []byte) {
		if len(resp) == 0 {
			return
		}
		op, n := ops[int(opIdx)%len(ops)], int(count)%8+1
		cl, arena, outCrcs := fuzzCall(op, n, rangeLen)
		body := bytes.NewReader(resp[1:])
		d := decoder{r: body}
		err := d.response(cl, resp[0], claimed)
		// The same response through the synchronous scheduler's frame
		// reader, in fuzz-chosen chunks, with an OpSize answer queued
		// behind it: the same verdict, the same bytes landed, the frame
		// consumed exactly, and the answer behind it decoded.
		frame := resp[:len(resp)-body.Len()]
		twin, twinArena, twinCrcs := fuzzCall(op, n, rangeLen)
		src := &scriptedSource{data: append([]byte{}, frame...), chunks: fuzzChunks(chunks)}
		if err == nil {
			src.data = append(src.data, statusOK, 0, 0, 0, 0, 0, 0, 0x10, 0)
		}
		fr := newFrameReader(src)
		status, ferr := fr.first()
		if ferr != nil || status != resp[0] {
			t.Fatalf("frame reader's first byte %d, %v; want %d", status, ferr, resp[0])
		}
		twinD := decoder{r: &fr}
		if terr := twinD.response(twin, status, claimed); (terr == nil) != (err == nil) {
			t.Fatalf("op %d: through the frame reader the decode returned %v, directly %v", op, terr, err)
		}
		if fmt.Sprint(twin.err) != fmt.Sprint(cl.err) || twin.result != cl.result ||
			!bytes.Equal(twinArena, arena) || !bytes.Equal(u32s(twinCrcs), u32s(outCrcs)) {
			t.Fatalf("op %d: through the frame reader the outcome differs: %v %+v, directly %v %+v", op, twin.err, twin.result, cl.err, cl.result)
		}
		if err != nil {
			return // stream declared desynchronized: the connection is retired
		}
		if consumed := src.pos - (fr.hi - fr.lo); consumed != len(frame) {
			t.Fatalf("op %d: the frame reader consumed %d bytes of a %d-byte response", op, consumed, len(frame))
		}
		size := getCall()
		size.buildMgmt(OpSize)
		if status, err := fr.first(); err != nil || twinD.response(size, status, true) != nil || size.u64 != 4096 {
			t.Fatalf("op %d: the answer behind the response decoded to %d (status %d, %v)", op, size.u64, status, err)
		}
		if cl.err != nil && !IsRemote(cl.err) && !IsCRC(cl.err) {
			t.Fatalf("op %d: verdict of unknown kind: %v", op, cl.err)
		}
		if cl.applied < 0 || cl.applied > cl.nvecs || (cl.err != nil && cl.nvecs > 0 && cl.applied == cl.nvecs) {
			t.Fatalf("op %d: applied %d of %d ranges with verdict %v", op, cl.applied, cl.nvecs, cl.err)
		}
		if !claimed && (!bytes.Equal(arena, bytes.Repeat([]byte{0xEE}, len(arena))) || !bytes.Equal(u32s(outCrcs), make([]byte, 4*n))) {
			t.Fatalf("op %d: abandoned call's buffers were written", op)
		}
	})
}

// fuzzCall builds the call FuzzDecodeResponse answers: opcode op over n
// ranges of rangeLen bytes, into a fresh arena of 0xEE and, for OpCrcV,
// fresh checksum slots.
func fuzzCall(op byte, n, rangeLen int) (cl *call, arena []byte, outCrcs []uint32) {
	vecs, bufs := make([]Vec, n), make([][]byte, n)
	arena = bytes.Repeat([]byte{0xEE}, n*rangeLen)
	for i := range vecs {
		vecs[i] = Vec{Off: int64(i) * int64(rangeLen), Len: rangeLen}
		bufs[i] = arena[i*rangeLen : (i+1)*rangeLen : (i+1)*rangeLen]
	}
	cl = getCall()
	outCrcs = make([]uint32, n)
	switch op {
	case OpRead:
		cl.buildRead(bufs[0], 0)
	case OpWrite:
		cl.buildWrite(bufs[0], 0)
	case OpReadV, OpReadVC:
		cl.buildReadV(op == OpReadVC, vecs, bufs, int64(n*rangeLen))
	case OpWriteV, OpWriteVC:
		cl.buildWriteV(op == OpWriteVC, vecs, bufs)
	case OpCrcV:
		cl.buildVecs(op, vecs)
		cl.outCrcs = outCrcs
	default:
		cl.buildMgmt(op)
	}
	return cl, arena, outCrcs
}

func u32s(v []uint32) []byte {
	var b []byte
	for _, x := range v {
		b = binary.BigEndian.AppendUint32(b, x)
	}
	return b
}
