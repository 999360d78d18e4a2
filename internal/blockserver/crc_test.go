package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"shiftedmirror/internal/crc32c"
	"shiftedmirror/internal/dev"
)

// startCRCServer serves a MemStore with a CRC sidecar at the given
// block size, optionally hidden behind the Store interface so the
// pooled (non-zero-copy) paths run.
func startCRCServer(t *testing.T, size, crcBlock int64, direct bool) (string, *dev.MemStore) {
	t.Helper()
	mem := dev.NewMemStore(size)
	var store Store = mem
	if !direct {
		store = opaqueStore{mem}
	}
	var opts []ServerOption
	if crcBlock > 0 {
		opts = append(opts, WithCRC(crcBlock))
	}
	srv := NewStoreServer(store, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), mem
}

func dialCRC(t *testing.T, addr string) *Client {
	t.Helper()
	client, err := DialConfig(addr, Config{Features: FeatureCRC})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestFeatureNegotiationMatrix pins every pairing of old/new client and
// server, each against both the zero-copy and the pooled store path:
// the negotiated feature set is the intersection, and the data path
// round-trips in all cases.
func TestFeatureNegotiationMatrix(t *testing.T) {
	const blk = 256
	cases := []struct {
		name          string
		serverCRC     bool
		clientFeature byte
		wantCRC       bool
	}{
		{"both-new", true, FeatureCRC, true},
		{"old-server", false, FeatureCRC, false},
		{"old-client", true, 0, false},
		{"both-old", false, 0, false},
		// The pipeline feature composes with every CRC pairing: the
		// tagged-frame mode carries the same payloads, so the matrix
		// must round-trip identically. (A server that predates the
		// feature is pinned by TestPipelineOldServerFallsBack.)
		{"pipelined", false, FeaturePipeline, false},
		{"pipelined-crc", true, FeatureCRC | FeaturePipeline, true},
	}
	for _, direct := range []bool{true, false} {
		mode := map[bool]string{true: "direct", false: "pooled"}[direct]
		for _, tc := range cases {
			tc := tc
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				var crcBlock int64
				if tc.serverCRC {
					crcBlock = blk
				}
				addr, _ := startCRCServer(t, 4096, crcBlock, direct)
				client, err := DialConfig(addr, Config{Features: tc.clientFeature})
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				if client.HasCRC() != tc.wantCRC {
					t.Fatalf("HasCRC = %v, want %v", client.HasCRC(), tc.wantCRC)
				}
				wantPipe := tc.clientFeature&FeaturePipeline != 0
				if client.HasPipeline() != wantPipe {
					t.Fatalf("HasPipeline = %v, want %v", client.HasPipeline(), wantPipe)
				}
				if tc.wantCRC && client.CRCBlock() != blk {
					t.Fatalf("CRCBlock = %d, want %d", client.CRCBlock(), blk)
				}
				// The data path works whichever opcodes were negotiated.
				ctx := context.Background()
				payload := make([]byte, blk)
				rand.New(rand.NewSource(3)).Read(payload)
				vecs := []Vec{{Off: blk, Len: blk}}
				if n, err := client.WriteVCtx(ctx, vecs, [][]byte{payload}); err != nil || n != 1 {
					t.Fatalf("WriteVCtx: %d, %v", n, err)
				}
				got := make([]byte, blk)
				if err := client.ReadVCtx(ctx, vecs, [][]byte{got}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("negotiated round trip mismatch")
				}
				want := crc32c.Sum(payload)
				sums := make([]uint32, 1)
				err = client.CrcV(ctx, vecs, sums)
				if tc.wantCRC {
					if err != nil || sums[0] != want {
						t.Fatalf("CrcV: %v, sum %#08x want %#08x", err, sums[0], want)
					}
				} else if err != ErrNoCRC {
					t.Fatalf("CrcV without the feature: %v, want ErrNoCRC", err)
				}
			})
		}
	}
}

// TestCRCDetectsReadCorruption flips a stored byte behind the server's
// back and checks a CRC-mode read surfaces a CRCError — with the
// connection still synchronized and usable — while a plain connection
// silently returns the rotten bytes. Both store paths are covered.
func TestCRCDetectsReadCorruption(t *testing.T) {
	for _, direct := range []bool{true, false} {
		mode := map[bool]string{true: "direct", false: "pooled"}[direct]
		t.Run(mode, func(t *testing.T) {
			const blk = 512
			addr, mem := startCRCServer(t, 4*blk, blk, direct)
			client := dialCRC(t, addr)
			plain, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			ctx := context.Background()
			payload := make([]byte, 2*blk)
			rand.New(rand.NewSource(4)).Read(payload)
			vecs := []Vec{{Off: 0, Len: blk}, {Off: blk, Len: blk}}
			data := [][]byte{payload[:blk], payload[blk:]}
			if _, err := client.WriteVCtx(ctx, vecs, data); err != nil {
				t.Fatal(err)
			}
			// Rot one byte of range 1 directly in the store: the write-time
			// sidecar checksum no longer matches the bytes.
			if _, err := mem.WriteAt([]byte{payload[blk] ^ 0xFF}, blk); err != nil {
				t.Fatal(err)
			}
			dst := [][]byte{make([]byte, blk), make([]byte, blk)}
			err = client.ReadVCtx(ctx, vecs, dst)
			var crcErr *CRCError
			if !errors.As(err, &crcErr) {
				t.Fatalf("read of rotten range: %v, want CRCError", err)
			}
			if crcErr.Range != 1 || crcErr.Write {
				t.Fatalf("CRCError = %+v, want read range 1", crcErr)
			}
			// The clean range was still delivered and the stream stayed
			// synchronized: the next op on the same connection works.
			if !bytes.Equal(dst[0], payload[:blk]) {
				t.Fatal("clean range not delivered alongside the CRC failure")
			}
			if err := client.ReadVCtx(ctx, vecs[:1], dst[:1]); err != nil {
				t.Fatalf("connection poisoned by a CRC verdict: %v", err)
			}
			// A plain connection has no way to notice: it returns rot.
			if err := plain.ReadVCtx(ctx, vecs, dst); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(dst[1], payload[blk:]) {
				t.Fatal("expected the plain read to return the corrupted bytes")
			}
		})
	}
}

// TestCRCRejectsCorruptWrite hand-crafts an OpWriteVC frame whose
// checksum does not match its payload and checks the server rejects the
// range with a CRC verdict instead of applying rot — and that a
// well-formed write still lands afterwards on the same connection.
func TestCRCRejectsCorruptWrite(t *testing.T) {
	for _, direct := range []bool{true, false} {
		mode := map[bool]string{true: "direct", false: "pooled"}[direct]
		t.Run(mode, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, pipelined bool) {
				const blk = wireCRCBlock
				srv, addr, mem := startWireServer(t, direct)
				p := dialPeer(t, addr, pipelined)
				payload := bytes.Repeat([]byte{0xAB}, blk)
				frame := scatterFrame(OpWriteVC, []Vec{{Off: 0, Len: blk}}, payload)
				frame[5+vecHdrSize+3] ^= 1 // the carried checksum
				p.send(frame)
				var ce *CRCError
				if err := p.status(); !errors.As(err, &ce) || ce.Range != 0 {
					t.Fatalf("corrupt frame answered %v, want a CRC verdict on range 0", err)
				}
				// The stream is still synchronized: a good frame works.
				p.send(scatterFrame(OpWriteVC, []Vec{{Off: blk, Len: blk}}, payload))
				var applied [4]byte
				if err := p.status(); err != nil {
					t.Fatalf("good frame after CRC verdict: %v", err)
				}
				if _, err := io.ReadFull(p.conn, applied[:]); err != nil || binary.BigEndian.Uint32(applied[:]) != 1 {
					t.Fatalf("good frame after CRC verdict applied %v: %v", applied, err)
				}
				// Close waits for the handler goroutines, ordering the
				// store assertions below after their writes.
				srv.Close()
				got := make([]byte, 2*blk)
				if _, err := mem.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				// The pooled path must not have applied the rejected range; the
				// zero-copy path may have scribbled (documented tradeoff), but
				// its sidecar entry is invalid, so a CRC read catches it.
				if !direct && bytes.Equal(got[:blk], payload) {
					t.Fatal("pooled server applied a CRC-rejected range")
				}
				if !bytes.Equal(got[blk:], payload) {
					t.Fatal("good frame after CRC verdict not applied")
				}
			})
		})
	}
}

// TestCrcVRecomputes pins that OpCrcV is a rot detector: it checksums
// the store's current bytes, not the write-time sidecar.
func TestCrcVRecomputes(t *testing.T) {
	const blk = 256
	addr, mem := startCRCServer(t, 4*blk, blk, true)
	client := dialCRC(t, addr)
	ctx := context.Background()
	payload := make([]byte, blk)
	rand.New(rand.NewSource(5)).Read(payload)
	vecs := []Vec{{Off: 0, Len: blk}}
	if _, err := client.WriteVCtx(ctx, vecs, [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	sums := make([]uint32, 1)
	if err := client.CrcV(ctx, vecs, sums); err != nil {
		t.Fatal(err)
	}
	if want := crc32c.Sum(payload); sums[0] != want {
		t.Fatalf("CrcV %#08x, want %#08x", sums[0], want)
	}
	if _, err := mem.WriteAt([]byte{payload[0] ^ 0xFF}, 0); err != nil {
		t.Fatal(err)
	}
	if err := client.CrcV(ctx, vecs, sums); err != nil {
		t.Fatal(err)
	}
	if stale := crc32c.Sum(payload); sums[0] == stale {
		t.Fatal("CrcV served the stale write-time checksum over rotten bytes")
	}
}

// TestCRCSidecarOverlappingWriters drives the sidecar's in-flight
// bookkeeping through the interleaving that used to corrupt it: two
// connections write the same block as storeA, storeB, endB, endA,
// which previously left A's CRC in the sidecar over B's bytes — a
// spurious client-side CRCError on every later OpReadVC of the block.
// With overlap detection neither writer publishes; the block stays
// invalid and rangeCRC falls back to a fresh (coherent) checksum.
func TestCRCSidecarOverlappingWriters(t *testing.T) {
	const blk = int64(64)
	mem := dev.NewMemStore(4 * blk)
	srv := NewStoreServer(mem, WithCRC(blk))

	a := bytes.Repeat([]byte{0xAA}, int(blk))
	b := bytes.Repeat([]byte{0xBB}, int(blk))

	srv.beginWrite(0, blk)
	srv.beginWrite(0, blk)
	if _, err := mem.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.WriteAt(b, 0); err != nil { // B's bytes win in the store
		t.Fatal(err)
	}
	srv.endWrite(0, b, crc32c.Sum(b), true) // ...but B's endWrite runs first
	srv.endWrite(0, a, crc32c.Sum(a), true)

	if srv.crcValid[0]&1 != 0 {
		t.Fatal("overlapping writers published a sidecar CRC")
	}
	if len(srv.crcBusy) != 0 {
		t.Fatalf("in-flight table leaked %d entries", len(srv.crcBusy))
	}
	v := Vec{Off: 0, Len: int(blk)}
	if got, want := srv.rangeCRC(v, b), crc32c.Sum(b); got != want {
		t.Fatalf("rangeCRC after overlap %#08x, want fresh %#08x", got, want)
	}

	// A lone writer publishes again, and rangeCRC serves the write-time
	// entry (passing different bytes proves it is the sidecar talking).
	srv.beginWrite(0, blk)
	if _, err := mem.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	srv.endWrite(0, a, crc32c.Sum(a), true)
	if srv.crcValid[0]&1 == 0 {
		t.Fatal("lone writer failed to publish")
	}
	if got, want := srv.rangeCRC(v, b), crc32c.Sum(a); got != want {
		t.Fatalf("rangeCRC after lone write %#08x, want sidecar %#08x", got, want)
	}

	// An aborted write leaves the block invalid and the table clean.
	srv.beginWrite(0, blk)
	srv.abortWrite(0, blk)
	if srv.crcValid[0]&1 != 0 || len(srv.crcBusy) != 0 {
		t.Fatal("abortWrite left the sidecar valid or the in-flight table populated")
	}
}

// TestNegotiateTransportError pins that a transport failure mid-
// negotiation fails the dial instead of silently redialing plain: a
// server that acknowledges OpFeatures but dies before the payload used
// to yield a working connection with CRC integrity quietly disabled.
func TestNegotiateTransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 2)
			io.ReadFull(conn, buf)
			conn.Write([]byte{statusOK}) // opcode recognized...
			conn.Close()                 // ...but the feature payload never arrives
		}
	}()
	client, err := DialConfig(ln.Addr().String(), Config{Features: FeatureCRC})
	if err == nil {
		client.Close()
		t.Fatal("dial succeeded despite the negotiation exchange dying mid-payload")
	}
}

// TestNegotiateOldServerRedialsPlain pins the compatibility path the
// stricter error handling must preserve: a pre-negotiation server tears
// the probe connection on the unknown opcode, and the client redials
// without features rather than failing the dial.
func TestNegotiateOldServerRedialsPlain(t *testing.T) {
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
			defer conn.Close() // plain redial: hold open until the test ends
		}
	}()
	client, err := DialConfig(ln.Addr().String(), Config{Features: FeatureCRC})
	if err != nil {
		t.Fatalf("dial against an old server: %v", err)
	}
	defer client.Close()
	if client.HasCRC() {
		t.Fatal("old server cannot have granted FeatureCRC")
	}
}
