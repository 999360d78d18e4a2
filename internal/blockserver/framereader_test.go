package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// This file tests the synchronous scheduler's frame reader: its fill
// rule over a scripted source, its read count per frame over loopback,
// and the bytes it reads ahead at the handover to the pipelined
// scheduler and between back-to-back frames.

// scriptedSource serves a byte stream in reads of at most the next of
// chunks bytes, cycling (none = as much as asked), and records every
// Read: how much it asked for, and whether it read into the frame
// reader's buffer.
type scriptedSource struct {
	data   []byte
	chunks []int
	buf    []byte // the frame reader's buffer, to tell its fills apart
	reads  []scriptedRead
	pos    int // bytes served so far
}

type scriptedRead struct {
	asked, got int
	intoBuf    bool
	at         int // stream offset the read started at
}

func (s *scriptedSource) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(s.data))
	if len(s.chunks) > 0 {
		n = min(n, s.chunks[len(s.reads)%len(s.chunks)])
	}
	rd := scriptedRead{asked: len(p), got: n, at: s.pos}
	rd.intoBuf = len(p) > 0 && len(s.buf) > 0 && &p[0] == &s.buf[0]
	s.reads = append(s.reads, rd)
	copy(p, s.data[:n])
	s.data = s.data[n:]
	s.pos += n
	return n, nil
}

// TestFrameReaderFillRule pins how a frame is read: the first read of a
// frame asks for the whole buffer, every later read asks for exactly
// what its field still misses — never for bytes past the frame — and no
// more than one buffer's worth of the frame is copied through the
// buffer. The frame is a 1 MiB OpWriteV of four ranges applied to a
// direct store, served whole per read and in chunks of several sizes.
func TestFrameReaderFillRule(t *testing.T) {
	const ranges, rangeLen = 4, 256 << 10
	vecs := make([]Vec, ranges)
	payloads := make([][]byte, ranges)
	rng := rand.New(rand.NewSource(5))
	for i := range vecs {
		vecs[i] = Vec{Off: int64(i) * rangeLen, Len: rangeLen}
		payloads[i] = make([]byte, rangeLen)
		rng.Read(payloads[i])
	}
	frame := scatterFrame(OpWriteV, vecs, payloads...)
	next := vecFrame(OpReadV, Vec{Off: 0, Len: 16})
	for _, chunk := range []int{0, 1000, 12, 7} {
		var chunks []int
		if chunk > 0 {
			chunks = []int{chunk}
		}
		mem := dev.NewMemStore(ranges * rangeLen)
		srv := NewStoreServer(mem)
		src := &scriptedSource{data: append(append([]byte{}, frame...), next...), chunks: chunks}
		fr := newFrameReader(src)
		src.buf = fr.buf
		var req request
		var rp reply
		op, err := fr.first()
		if err != nil || op != OpWriteV {
			t.Fatalf("chunk %d: first byte %d, %v", chunk, op, err)
		}
		if pending, err := srv.decode(&fr, op, &req, &rp); err != nil || pending {
			t.Fatalf("chunk %d: decode: pending=%v %v", chunk, pending, err)
		}
		if rp.bufs[0][tagRoom] != statusOK {
			t.Fatalf("chunk %d: the write was refused", chunk)
		}
		if fills := src.reads[0]; !fills.intoBuf || fills.asked != frameBufSize {
			t.Fatalf("chunk %d: the frame's first read asked for %d bytes (into the buffer: %v), want the whole buffer of %d",
				chunk, fills.asked, fills.intoBuf, frameBufSize)
		}
		copied := 0
		for i, rd := range src.reads {
			if rd.intoBuf {
				if i > 0 {
					t.Fatalf("chunk %d: read %d refilled the buffer mid-frame", chunk, i)
				}
				copied += rd.got
				continue
			}
			if rd.at+rd.asked > len(frame) {
				t.Fatalf("chunk %d: read %d at offset %d asked for %d bytes, past the %d-byte frame",
					chunk, i, rd.at, rd.asked, len(frame))
			}
		}
		if copied > frameBufSize {
			t.Fatalf("chunk %d: %d bytes of the frame passed through the buffer", chunk, copied)
		}
		if got := src.pos - (fr.hi - fr.lo); got != len(frame) {
			t.Fatalf("chunk %d: consumed %d bytes of a %d-byte frame", chunk, got, len(frame))
		}
		if chunk == 0 {
			// Served whole: one fill, then per range the rest of its payload
			// or the whole of it, and the headers of ranges 1–3 alone.
			want := []int{frameBufSize, rangeLen - (frameBufSize - 1 - 4 - vecHdrSize)}
			for i := 1; i < ranges; i++ {
				want = append(want, vecHdrSize, rangeLen)
			}
			var asked []int
			for _, rd := range src.reads {
				asked = append(asked, rd.asked)
			}
			if !equalInts(asked, want) {
				t.Fatalf("reads asked for %v, want %v", asked, want)
			}
		}
		for i, v := range vecs {
			if got, _ := mem.Slice(v.Off, int64(v.Len)); !bytes.Equal(got, payloads[i]) {
				t.Fatalf("chunk %d: range %d landed wrong", chunk, i)
			}
		}
		// The next frame decodes from where this one ended.
		rp.reset()
		if op, err := fr.first(); err != nil || op != OpReadV {
			t.Fatalf("chunk %d: next frame starts with %d, %v", chunk, op, err)
		}
		if pending, err := srv.decode(&fr, OpReadV, &req, &rp); err != nil || !pending || req.total != 16 {
			t.Fatalf("chunk %d: next frame: pending=%v total=%d %v", chunk, pending, req.total, err)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrameReaderHandoff: the stream handed on starts with what the
// frame reader had read ahead and continues with the connection.
func TestFrameReaderHandoff(t *testing.T) {
	src := &scriptedSource{data: []byte("a0123456789tail")}
	fr := newFrameReader(src)
	if b, err := fr.first(); err != nil || b != 'a' {
		t.Fatalf("first = %q, %v", b, err)
	}
	// The fill took the whole stream at once; consume two bytes of it.
	var two [2]byte
	if _, err := io.ReadFull(&fr, two[:]); err != nil || string(two[:]) != "01" {
		t.Fatalf("read %q, %v", two, err)
	}
	src.data = append(src.data, "-more"...)
	rest, err := io.ReadAll(fr.handoff())
	if err != nil || string(rest) != "23456789tail-more" {
		t.Fatalf("handed on %q, %v", rest, err)
	}
	if fr.buf != nil {
		t.Fatal("the frame reader kept its buffer past the handoff")
	}
}

// countingConn counts the Read calls on a TCP connection. It embeds the
// *net.TCPConn so net.Buffers still writes through it with one writev.
type countingConn struct {
	*net.TCPConn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.TCPConn.Read(p)
}

// TestSyncReadsPerFrame counts Read calls on both ends of a synchronous
// connection over loopback: a frame that fits the frame buffer costs one
// per end. Each kind runs 1000 exchanges of the cluster's opcodes, and
// the average per frame per end must stay within 1.1. (Read one field
// at a time, the server took 3, 4 and 4 reads and the client 3, 2 and
// 2.)
func TestSyncReadsPerFrame(t *testing.T) {
	const size, exchanges = 1 << 20, 1000
	srv := NewStoreServer(dev.NewMemStore(size))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var serverSide *countingConn
	var served sync.WaitGroup
	served.Add(1)
	accepted := make(chan struct{})
	go func() {
		defer served.Done()
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		serverSide = &countingConn{TCPConn: conn.(*net.TCPConn)}
		close(accepted)
		srv.serveConn(serverSide)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clientSide := &countingConn{TCPConn: conn.(*net.TCPConn)}
	// The timeout turns a frame reader that loses bytes into a failure
	// rather than a hang.
	client := newClient(Config{OpTimeout: 10 * time.Second}, clientSide)
	defer func() {
		client.Close()
		served.Wait()
	}()
	<-accepted
	if serverSide == nil {
		t.Fatal("accept failed")
	}
	ctx := context.Background()
	for _, kind := range []struct {
		name  string
		n     int
		write bool
	}{
		{"ReadV 4 KiB", 4 << 10, false},
		{"WriteV 4 KiB", 4 << 10, true},
		{"WriteV 16 KiB", 16 << 10, true},
	} {
		buf := make([]byte, kind.n)
		vecs, bufs := []Vec{{Len: kind.n}}, [][]byte{buf}
		serverSide.reads.Store(0)
		clientSide.reads.Store(0)
		for i := 0; i < exchanges; i++ {
			vecs[0].Off = int64(i%(size/kind.n)) * int64(kind.n)
			if kind.write {
				_, err = client.WriteVCtx(ctx, vecs, bufs)
			} else {
				err = client.ReadVCtx(ctx, vecs, bufs)
			}
			if err != nil {
				t.Fatalf("%s: %v", kind.name, err)
			}
		}
		srvReads := float64(serverSide.reads.Load()) / exchanges
		cliReads := float64(clientSide.reads.Load()) / exchanges
		t.Logf("%s: %.3f reads per request frame at the server, %.3f per response frame at the client", kind.name, srvReads, cliReads)
		if srvReads > 1.1 || cliReads > 1.1 {
			t.Errorf("%s: %.3f reads per frame at the server and %.3f at the client, want at most 1.1 each",
				kind.name, srvReads, cliReads)
		}
	}
}

// TestPipelinedHandoverKeepsReadAhead: a client that sends OpFeatures
// and its first tagged request in one write gets both answers — the
// tagged frame the synchronous loop read ahead goes to the pipelined
// scheduler.
func TestPipelinedHandoverKeepsReadAhead(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	const tag = 77
	req := binary.BigEndian.AppendUint32([]byte{OpFeatures, FeaturePipeline, OpSize}, tag)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var grant [1 + 5]byte
	if _, err := io.ReadFull(conn, grant[:]); err != nil || grant[0] != statusOK || grant[1]&FeaturePipeline == 0 {
		t.Fatalf("negotiation answered %v, %v", grant, err)
	}
	var size [4 + 1 + 8]byte
	if _, err := io.ReadFull(conn, size[:]); err != nil {
		t.Fatalf("the tagged request sent behind OpFeatures was not answered: %v", err)
	}
	if got := binary.BigEndian.Uint32(size[:]); got != tag || size[4] != statusOK || binary.BigEndian.Uint64(size[5:]) != 4096 {
		t.Fatalf("tagged answer %v, want tag %d, status ok, size 4096", size, tag)
	}
}

// TestSyncBackToBackRequests: two untagged requests written back to back
// in one write get two answers, in order — the second frame, read ahead
// with the first, is served from the buffer.
func TestSyncBackToBackRequests(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := append(rangeFrame(OpWrite, 8, 4, []byte("abcd")), rangeFrame(OpRead, 8, 4, nil)...)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != statusOK {
		t.Fatalf("write answered %v, %v", ack, err)
	}
	var read [1 + 4 + 4]byte
	if _, err := io.ReadFull(conn, read[:]); err != nil {
		t.Fatalf("the second request was not answered: %v", err)
	}
	if read[0] != statusOK || binary.BigEndian.Uint32(read[1:]) != 4 || string(read[5:]) != "abcd" {
		t.Fatalf("read answered %q, want the bytes the first request wrote", read)
	}
}
