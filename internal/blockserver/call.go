package blockserver

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"shiftedmirror/internal/crc32c"
)

// This file is the client's wire codec: each opcode's request builder
// and response decoder, written once. A call carries one exchange; the
// synchronous Client runs it inline on its connection (client.go) and
// the pipelined one queues it behind a tag (pipeline.go) — two
// schedulers that differ only in framing. The payload formats are the
// same on both: request op | [tag] | payload, response [tag] | status |
// payload.

// reqRoom is the space every request frame reserves in front of its
// payload. The pipelined framing fills it with op(1) | tag(4); the
// synchronous framing puts the opcode in its last byte and sends from
// there.
const reqRoom = 5

// result is what a completed exchange yields beyond its error.
type result struct {
	applied int    // scatter writes: leading ranges the server applied
	u64     uint64 // OpSize: the size; OpFeatures: flags<<32 | crcblock
}

// call is one request/response exchange: the encoded request, where the
// response lands, and — for the pipelined scheduler — the rendezvous
// state between the submitting goroutine, the writer and the reader.
// Recycled through a sync.Pool so the steady state allocates nothing.
type call struct {
	op  byte
	tag uint32

	// Request frame: hdr holds reqRoom plus all fixed headers; bufs is
	// the slice list handed to writev (header chunks interleaved with
	// caller payload for writes). bufs[0] always starts at hdr[0].
	hdr  []byte
	bufs [][]byte

	// Response decode inputs/outputs. dst are caller read buffers
	// (touched only while the call is claimed, never after a drop);
	// outCrcs is CrcV's caller slice; raw is scratch for fixed-size
	// response blocks (it cannot be hdr: a response may be decoded
	// while the writev that sends hdr is still in progress).
	nvecs   int
	total   int64
	dst     [][]byte
	outCrcs []uint32
	raw     []byte
	result
	err error

	// Pipelined scheduling state (see pipeline.go). enq and deadline are
	// set by submit; phase, users and dropped are read and written only
	// with the pipe's lock held.
	enq      time.Time
	deadline time.Time
	phase    phase
	users    int  // the writer inside a writev of bufs, the reader decoding into dst
	dropped  bool // the caller cancelled: nobody waits on done, never recycled
	// done (cap 1) is signalled by settle, once, when the call is handed
	// back; only the submitting goroutine receives on it.
	done chan struct{}
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1)}
}}

func getCall() *call {
	cl := callPool.Get().(*call)
	// A caller that cancelled and found its call complete anyway took it
	// back without receiving the signal.
	select {
	case <-cl.done:
	default:
	}
	cl.err = nil
	cl.result = result{}
	cl.nvecs = 0
	cl.total = 0
	cl.deadline = time.Time{}
	return cl
}

// putCall recycles a completed call. Callers must own it (never one
// that was dropped mid-flight). Caller payload references are cleared
// so the pool does not pin user memory.
func putCall(cl *call) {
	clear(cl.bufs)
	cl.bufs = cl.bufs[:0]
	clear(cl.dst)
	cl.dst = cl.dst[:0]
	cl.outCrcs = nil
	callPool.Put(cl)
}

// --- request builders -------------------------------------------------

// begin sizes the request frame for n payload bytes and makes it the
// call's only buffer so far.
func (cl *call) begin(op byte, n int) []byte {
	cl.op = op
	if cap(cl.hdr) < reqRoom+n {
		cl.hdr = make([]byte, reqRoom+n)
	}
	cl.hdr = cl.hdr[:reqRoom+n]
	cl.bufs = append(cl.bufs[:0], cl.hdr)
	return cl.hdr[reqRoom:]
}

// buildRead encodes OpRead of len(dst) bytes at off.
func (cl *call) buildRead(dst []byte, off int64) {
	putVecHdr(cl.begin(OpRead, vecHdrSize), Vec{Off: off, Len: len(dst)})
	cl.dst = append(cl.dst[:0], dst)
	cl.nvecs, cl.total = 1, int64(len(dst))
}

// buildWrite encodes OpWrite of data at off; the payload rides behind
// the header in the same writev, never copied.
func (cl *call) buildWrite(data []byte, off int64) {
	putVecHdr(cl.begin(OpWrite, vecHdrSize), Vec{Off: off, Len: len(data)})
	cl.bufs = append(cl.bufs, data)
}

// buildVecs encodes a read-class vector request (OpReadV, OpReadVC,
// OpCrcV): count | count*(off len).
func (cl *call) buildVecs(op byte, vecs []Vec) {
	p := cl.begin(op, 4+vecHdrSize*len(vecs))
	binary.BigEndian.PutUint32(p, uint32(len(vecs)))
	for i, v := range vecs {
		putVecHdr(p[4+vecHdrSize*i:], v)
	}
	cl.nvecs = len(vecs)
}

// buildReadV encodes a gather into dst (OpReadV, or OpReadVC when the
// connection carries CRCs), whose slices are written only while the
// call is claimed.
func (cl *call) buildReadV(withCRC bool, vecs []Vec, dst [][]byte, total int64) {
	op := OpReadV
	if withCRC {
		op = OpReadVC
	}
	cl.buildVecs(op, vecs)
	cl.dst = append(cl.dst[:0], dst...)
	cl.total = total
}

// buildWriteV encodes OpWriteV, or OpWriteVC with each range's CRC-32C
// in its header. All range headers are packed into the frame and
// interleaved with the payload slices in one writev, so the payloads
// are never copied client-side.
func (cl *call) buildWriteV(withCRC bool, vecs []Vec, data [][]byte) {
	op, hsz := OpWriteV, vecHdrSize
	if withCRC {
		op, hsz = OpWriteVC, vecHdrCRCSize
	}
	cl.begin(op, 4+hsz*len(vecs))
	h := cl.hdr
	binary.BigEndian.PutUint32(h[reqRoom:], uint32(len(vecs)))
	bufs := cl.bufs[:0]
	start, at := 0, reqRoom+4
	for i, v := range vecs {
		putVecHdr(h[at:], v)
		if withCRC {
			binary.BigEndian.PutUint32(h[at+vecHdrSize:], crc32c.Sum(data[i]))
		}
		at += hsz
		bufs = append(bufs, h[start:at], data[i])
		start = at
	}
	cl.bufs = bufs
	cl.nvecs = len(vecs)
}

// buildMgmt encodes a management request (OpSize, OpFeatures); extra is
// the opcode's fixed request payload.
func (cl *call) buildMgmt(op byte, extra ...byte) {
	copy(cl.begin(op, len(extra)), extra)
}

// --- response decoder -------------------------------------------------

// decoder consumes responses off one connection's stream. The scratch
// lives here, on the heap with its owner, so fixed-size reads do not
// allocate.
type decoder struct {
	r   io.Reader
	hdr [12]byte
}

func (d *decoder) uint32() (uint32, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(d.hdr[:4]), nil
}

// block reads an n-byte fixed-size response block into cl's scratch in
// one read (n is bounded by the request that cl sent).
func (d *decoder) block(cl *call, n int) ([]byte, error) {
	if cap(cl.raw) < n {
		cl.raw = make([]byte, n)
	}
	cl.raw = cl.raw[:n]
	_, err := io.ReadFull(d.r, cl.raw)
	return cl.raw, err
}

// response consumes the payload of cl's response, whose status byte the
// transport has already read. claimed=false means the caller dropped
// the call: the payload is drained, caller memory is never touched.
// Per-call verdicts (remote error, CRC mismatch) land in cl.err with a
// nil return; a non-nil return is transport or framing trouble that
// leaves the stream desynchronized.
func (d *decoder) response(cl *call, status byte, claimed bool) error {
	if status != statusOK {
		return d.failure(cl, status)
	}
	switch cl.op {
	case OpRead, OpReadV, OpReadVC:
		m, err := d.uint32()
		if err != nil {
			return err
		}
		if int64(m) != cl.total {
			return fmt.Errorf("%w: server returned %d bytes for a %d-byte read", ErrProtocol, m, cl.total)
		}
		var crcs []byte
		if cl.op == OpReadVC {
			if crcs, err = d.block(cl, 4*cl.nvecs); err != nil {
				return err
			}
		}
		if !claimed {
			_, err := io.CopyN(io.Discard, d.r, cl.total)
			return err
		}
		// On a CRC mismatch keep consuming the remaining ranges: the frame
		// must be fully drained for the stream to stay synchronized.
		for i, dst := range cl.dst {
			if _, err := io.ReadFull(d.r, dst); err != nil {
				return err
			}
			if crcs != nil && cl.err == nil {
				if want, got := binary.BigEndian.Uint32(crcs[4*i:]), crc32c.Sum(dst); got != want {
					cl.err = &CRCError{Range: i, Want: want, Got: got}
				}
			}
		}
	case OpWrite:
	case OpWriteV, OpWriteVC:
		m, err := d.uint32()
		if err != nil {
			return err
		}
		if int(m) != cl.nvecs {
			return fmt.Errorf("%w: server applied %d of %d scatter ranges without error", ErrProtocol, m, cl.nvecs)
		}
		cl.applied = cl.nvecs
	case OpCrcV:
		crcs, err := d.block(cl, 4*cl.nvecs)
		if err != nil {
			return err
		}
		if claimed {
			for i := range cl.outCrcs {
				cl.outCrcs[i] = binary.BigEndian.Uint32(crcs[4*i:])
			}
		}
	case OpSize:
		p, err := d.block(cl, 8)
		if err != nil {
			return err
		}
		cl.u64 = binary.BigEndian.Uint64(p)
	case OpFeatures:
		p, err := d.block(cl, 5)
		if err != nil {
			return err
		}
		cl.u64 = uint64(p[0])<<32 | uint64(binary.BigEndian.Uint32(p[1:]))
	default:
		return fmt.Errorf("%w: response for unexpected opcode %d", ErrProtocol, cl.op)
	}
	return nil
}

// failure decodes a non-OK response into cl.err. The scatter opcodes'
// verdicts carry the index of the rejected range — the ranges before it
// are durable — which becomes cl.applied.
func (d *decoder) failure(cl *call, status byte) error {
	scatter := cl.op == OpWriteV || cl.op == OpWriteVC
	if status == statusCRC {
		if _, err := io.ReadFull(d.r, d.hdr[:12]); err != nil {
			return err
		}
		ce := &CRCError{
			Range: int(binary.BigEndian.Uint32(d.hdr[:])),
			Want:  binary.BigEndian.Uint32(d.hdr[4:]),
			Got:   binary.BigEndian.Uint32(d.hdr[8:]),
			Write: true,
		}
		cl.err = ce
		if scatter {
			return cl.credit(ce.Range)
		}
		return nil
	}
	if scatter {
		f, err := d.uint32()
		if err != nil {
			return err
		}
		if err := cl.credit(int(f)); err != nil {
			return err
		}
	}
	n, err := d.uint32()
	if err != nil {
		return err
	}
	if n > 1<<16 {
		return fmt.Errorf("%w: oversized error message (%d bytes)", ErrProtocol, n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(d.r, msg); err != nil {
		return err
	}
	cl.err = &RemoteError{Msg: string(msg)}
	return nil
}

// credit records that the server applied the failed ranges before the
// one it rejected.
func (cl *call) credit(failed int) error {
	if failed < 0 || failed >= cl.nvecs {
		return fmt.Errorf("%w: failed-range index %d beyond %d ranges", ErrProtocol, uint32(failed), cl.nvecs)
	}
	cl.applied = failed
	return nil
}
