package blockserver

import (
	"encoding/binary"
	"fmt"
	"io"

	"shiftedmirror/internal/crc32c"
)

// This file is the server's wire codec: each opcode's request parse,
// bounds checks, store apply and reply encoding, written once. It knows
// nothing about connections. Requests are decoded from an io.Reader and
// answered into a reply value; the synchronous connection loop
// (server.go) and the pipelined demux/worker/writer (pipeserver.go) are
// two schedulers over it that differ only in framing — whether a tag
// travels with each frame — and in when they run apply.
//
// Copy discipline: with a DirectStore, a gather read is one writev of
// {header, store memory...} and a scatter write reads the stream
// straight into the store region — the kernel's socket copy is the only
// copy left, and the CRC pass (when negotiated) runs over the same
// bytes while they are cache-hot. Pooled buffers remain the fallback
// for stores that cannot expose memory (files, rate-limited spindle
// models, fault-injection wrappers).

// request is one decoded read-class request (OpRead, OpReadV, OpReadVC,
// OpCrcV): everything the stream carried for it, admitted and
// bounds-checked, so a transport may apply it later and on another
// goroutine. For the other opcodes only op and the hdr scratch are used:
// their payload is applied as it streams in.
type request struct {
	op    byte
	vecs  []Vec
	total int64
	// hdr is scratch for fixed-size fields. It lives in the request, which
	// lives on the heap, so reading into it does not allocate the way a
	// stack array escaping into the Reader would.
	hdr [vecHdrCRCSize]byte
}

func (q *request) readUint32(r io.Reader) (uint32, error) {
	if _, err := io.ReadFull(r, q.hdr[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(q.hdr[:4]), nil
}

// tagRoom is the space every reply head reserves in front of its status
// byte. The pipelined framing stamps the request's tag there; the
// synchronous framing sends from the status byte on.
const tagRoom = 4

// reply is one encoded response and the accounting of the request it
// answers: bufs[0] is the head — tag room | status | fixed fields — and
// any further entries are payload (store memory on the direct path).
type reply struct {
	bufs   [][]byte
	frames []*[]byte // pooled frames behind bufs, recycled by reset
	// small backs heads of up to 12 bytes of fixed fields (every write
	// acknowledgement and CRC verdict), so those never visit the pool.
	small [tagRoom + 1 + 12]byte
	acct  opAcct
}

// begin starts the reply over with the given status and n bytes of
// fixed fields and payload in the head, which it returns for the caller
// to fill. Whatever an abandoned earlier attempt encoded is dropped.
func (rp *reply) begin(status byte, n int) []byte {
	rp.reset()
	head := rp.small[:]
	if need := tagRoom + 1 + n; need <= len(head) {
		head = head[:need]
	} else {
		f := getFrame(need)
		rp.frames = append(rp.frames, f)
		head = *f
	}
	head[tagRoom] = status
	rp.bufs = append(rp.bufs, head)
	return head[tagRoom+1:]
}

// reset recycles the reply's pooled frames and drops its references to
// store memory. The accounting is the transport's to clear.
func (rp *reply) reset() {
	for _, f := range rp.frames {
		putFrame(f)
	}
	rp.frames = rp.frames[:0]
	clear(rp.bufs)
	rp.bufs = rp.bufs[:0]
}

// fail encodes err as a remote-error response: the request was consumed
// whole, the stream is synchronized, the connection lives on.
func (rp *reply) fail(err error) { rp.failAt(-1, err) }

// failAt is fail for the scatter opcodes, whose error response carries
// the index of the rejected range first (failed >= 0): the leading
// `failed` ranges were applied, the rest drained without being applied.
// A CRC verdict has its own status and layout.
func (rp *reply) failAt(failed int, err error) {
	rp.acct.remoteErr = err
	if ce, ok := err.(*CRCError); ok {
		p := rp.begin(statusCRC, 12)
		binary.BigEndian.PutUint32(p, uint32(ce.Range))
		binary.BigEndian.PutUint32(p[4:], ce.Want)
		binary.BigEndian.PutUint32(p[8:], ce.Got)
		return
	}
	msg := err.Error()
	n := 0
	if failed >= 0 {
		n = 4
	}
	p := rp.begin(statusErr, n+4+len(msg))
	if failed >= 0 {
		binary.BigEndian.PutUint32(p, uint32(failed))
	}
	binary.BigEndian.PutUint32(p[n:], uint32(len(msg)))
	copy(p[n+4:], msg)
}

// decode reads one request of opcode op off r. A read-class request is
// returned pending: fully consumed and validated in req, for the caller
// to apply now or later. Every other opcode is applied as it is decoded
// — its payload streams into the store in request order — and answered
// in rp before decode returns. A non-nil error tears the connection
// (transport trouble, or a framing violation that leaves the payload
// boundary untrustworthy); store-level errors travel back in rp with
// the stream synchronized.
func (s *Server) decode(r io.Reader, op byte, req *request, rp *reply) (pending bool, err error) {
	req.op = op
	switch op {
	case OpRead, OpReadV, OpReadVC, OpCrcV:
		return s.decodeRanges(r, req, rp)
	case OpWrite, OpWriteV, OpWriteVC:
		return false, s.applyWrites(r, req, rp)
	case OpSize:
		binary.BigEndian.PutUint64(rp.begin(statusOK, 8), uint64(s.size))
		return false, nil
	default:
		// Includes OpFeatures — negotiation belongs to the connection loop,
		// before the first request, and never recurs mid-stream — and the
		// retired bytes 4–7.
		return false, fmt.Errorf("%w: unexpected opcode %d", ErrProtocol, op)
	}
}

// apply executes a pending request against the store and encodes the
// answer.
func (s *Server) apply(req *request, rp *reply) {
	if req.op == OpCrcV {
		s.applyCrcV(req, rp)
	} else {
		s.applyRead(req, rp)
	}
}

// decodeRanges parses a read-class request: a count and that many
// off|len headers (OpRead is the one-range form without the count). The
// header block has a fixed size, so a range that is too long or outside
// the store is answered with a remote error on a synchronized stream.
func (s *Server) decodeRanges(r io.Reader, req *request, rp *reply) (bool, error) {
	count := uint32(1)
	if req.op != OpRead {
		var err error
		if count, err = req.readUint32(r); err != nil {
			return false, err
		}
		if err := checkCount(int64(count)); err != nil {
			return false, err
		}
	}
	hdrs := getFrame(vecHdrSize * int(count))
	defer putFrame(hdrs)
	if _, err := io.ReadFull(r, *hdrs); err != nil {
		return false, err
	}
	req.vecs, req.total = req.vecs[:0], 0
	for i := 0; i < int(count); i++ {
		v := getVecHdr((*hdrs)[vecHdrSize*i:])
		err := admit(v, &req.total)
		if err == nil {
			err = checkVec(v, s.size)
		}
		if err != nil {
			rp.fail(err)
			return false, nil
		}
		req.vecs = append(req.vecs, v)
	}
	if req.op == OpReadVC && s.crcBlock == 0 {
		rp.fail(fmt.Errorf("crc read on a server without WithCRC"))
		return false, nil
	}
	return true, nil
}

// applyRead answers OpRead, OpReadV and OpReadVC, whose responses share
// one layout: total(4) | [count*crc(4)] | data. A direct store serves
// the data as a writev of its own memory behind the head; otherwise head
// and data are one pooled frame the store reads into.
func (s *Server) applyRead(req *request, rp *reply) {
	withCRC := req.op == OpReadVC
	fixed := 4
	if withCRC {
		fixed += 4 * len(req.vecs)
	}
	direct := s.direct != nil
	if direct {
		rp.begin(statusOK, fixed)
		for _, v := range req.vecs {
			mem, ok := s.direct.Slice(v.Off, int64(v.Len))
			if !ok {
				direct = false
				break
			}
			rp.bufs = append(rp.bufs, mem)
		}
	}
	var p []byte
	if direct {
		p = rp.bufs[0][tagRoom+1:]
		rp.acct.zeroCopy = true
	} else {
		p = rp.begin(statusOK, fixed+int(req.total))
	}
	binary.BigEndian.PutUint32(p, uint32(req.total))
	at := fixed
	for i, v := range req.vecs {
		var data []byte
		if direct {
			data = rp.bufs[1+i]
		} else {
			data = p[at : at+v.Len]
			at += v.Len
			if _, err := s.store.ReadAt(data, v.Off); err != nil {
				rp.fail(err)
				return
			}
		}
		if withCRC {
			binary.BigEndian.PutUint32(p[4+4*i:], s.rangeCRC(v, data))
		}
	}
	if s.readRate != nil { // implies !direct, see initWire
		s.readRate.wait(int(req.total))
	}
	rp.acct.out += req.total
}

// applyCrcV answers OpCrcV: freshly recomputed CRC-32Cs of store
// content for each range, no payload. The sidecar is deliberately NOT
// consulted — recomputing from the bytes on the store is what lets
// Volume.Scrub catch rot that happened after the write landed. The read
// rate limit still applies (the store bytes are read), which is exactly
// the saving's shape: scrub pays disk-read time but not wire time.
func (s *Server) applyCrcV(req *request, rp *reply) {
	p := rp.begin(statusOK, 4*len(req.vecs))
	buf := getFrame(0)
	defer putFrame(buf)
	for i, v := range req.vecs {
		var data []byte
		ok := false
		if s.direct != nil {
			data, ok = s.direct.Slice(v.Off, int64(v.Len))
		}
		if !ok {
			data = growFrame(buf, v.Len)
			if _, err := s.store.ReadAt(data, v.Off); err != nil {
				rp.fail(err)
				return
			}
		}
		binary.BigEndian.PutUint32(p[4*i:], crc32c.Sum(data))
	}
	if s.readRate != nil {
		s.readRate.wait(int(req.total))
	}
	rp.acct.out += int64(4 * len(req.vecs))
}

// applyWrites serves OpWrite, OpWriteV and OpWriteVC (OpWrite is the
// one-range form: no count, a bare acknowledgement). Ranges are applied
// as they are decoded, so a 64 MiB batch never buffers more than one
// range at a time. Framing violations tear the connection: an oversized
// declared length means the payload boundary is untrustworthy, so
// resynchronizing is impossible. On the first range the store rejects —
// outside its bounds, a write error, a CRC mismatch — the remaining
// ranges are drained (the stream stays synchronized) and the response
// credits the ranges before it as applied.
//
// Zero-copy caveat: a direct store receives each range straight into
// store memory, so a range that dies mid-transfer — or is rejected for
// a CRC mismatch — has already scribbled on the store region. Its
// sidecar entry is left invalid and the client sees the write fail, so
// the mirror layer repairs it from the twin; the pooled path keeps the
// stricter never-partially-applied guarantee.
func (s *Server) applyWrites(r io.Reader, req *request, rp *reply) error {
	count, hdrSize, withCRC := uint32(1), vecHdrSize, req.op == OpWriteVC
	if req.op != OpWrite {
		var err error
		if count, err = req.readUint32(r); err != nil {
			return err
		}
		if err := checkCount(int64(count)); err != nil {
			return err
		}
	}
	if withCRC {
		hdrSize = vecHdrCRCSize
	}
	buf := getFrame(0)
	defer putFrame(buf)
	var (
		total    int64
		rejected error // the first range's verdict; later ranges are drained
		failed   int
	)
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(r, req.hdr[:hdrSize]); err != nil {
			return err
		}
		v := getVecHdr(req.hdr[:])
		want := binary.BigEndian.Uint32(req.hdr[vecHdrSize:]) // meaningful only withCRC
		if err := admit(v, &total); err != nil {
			return err
		}
		if rejected == nil {
			if rejected = checkVec(v, s.size); rejected != nil {
				failed = i
			}
		}
		n := int64(v.Len)
		if rejected == nil && s.direct != nil {
			if mem, ok := s.direct.Slice(v.Off, n); ok {
				s.beginWrite(v.Off, n)
				if _, err := io.ReadFull(r, mem); err != nil {
					s.abortWrite(v.Off, n)
					return err
				}
				rp.acct.in += n
				rp.acct.zeroCopy = true
				if rejected = verifyCRC(withCRC, i, mem, want); rejected != nil {
					s.abortWrite(v.Off, n)
					failed = i
					continue
				}
				s.endWrite(v.Off, mem, want, withCRC)
				continue
			}
		}
		data := growFrame(buf, v.Len)
		if _, err := io.ReadFull(r, data); err != nil {
			return err
		}
		rp.acct.in += n
		if rejected != nil {
			continue // draining
		}
		if rejected = verifyCRC(withCRC, i, data, want); rejected != nil {
			failed = i
			continue
		}
		s.beginWrite(v.Off, n)
		if _, err := s.store.WriteAt(data, v.Off); err != nil {
			s.abortWrite(v.Off, n)
			rejected, failed = err, i
			continue
		}
		s.endWrite(v.Off, data, want, withCRC)
	}
	switch {
	case rejected == nil && req.op == OpWrite:
		rp.begin(statusOK, 0)
	case rejected == nil:
		binary.BigEndian.PutUint32(rp.begin(statusOK, 4), count)
	case req.op == OpWrite:
		rp.fail(rejected)
	default:
		rp.failAt(failed, rejected)
	}
	return nil
}

// verifyCRC checks range i's received payload against the CRC-32C its
// header carried, when the opcode carries one.
func verifyCRC(withCRC bool, i int, data []byte, want uint32) error {
	if withCRC {
		if got := crc32c.Sum(data); got != want {
			return &CRCError{Range: i, Want: want, Got: got, Write: true}
		}
	}
	return nil
}

// --- CRC sidecar ------------------------------------------------------

// rangeCRC returns the checksum OpReadVC carries for one range: the
// write-time sidecar entry when the range is exactly one valid block
// (end-to-end coverage — rot in the store shows up as a client-side
// mismatch), else a fresh CRC of data (wire-only coverage).
func (s *Server) rangeCRC(v Vec, data []byte) uint32 {
	if b := s.crcBlock; b > 0 && v.Off%b == 0 && int64(v.Len) == b {
		idx := v.Off / b
		s.crcMu.Lock()
		if s.crcValid[idx>>6]&(1<<(idx&63)) != 0 {
			crc := s.crcSums[idx]
			s.crcMu.Unlock()
			return crc
		}
		s.crcMu.Unlock()
	}
	return crc32c.Sum(data)
}

// blockWrite tracks the store writes in flight on one sidecar block.
type blockWrite struct {
	writers int
	// overlapped latches once two writes were in flight on the block at
	// the same time: which payload the store kept is unknowable from up
	// here (connections race on the store itself), so none of them may
	// publish a write-time CRC — the block stays invalid and OpReadVC
	// falls back to a fresh CRC of whatever it reads, which is always
	// coherent.
	overlapped bool
}

// beginWrite marks every sidecar block overlapping [off, off+n) as
// having a store write in flight and invalidates its entry — the store
// bytes are about to change, so a concurrent OpReadVC must not serve
// the pre-write sidecar CRC against post-write bytes. Every beginWrite
// must be paired with exactly one endWrite or abortWrite.
func (s *Server) beginWrite(off, n int64) {
	b := s.crcBlock
	if b == 0 || n <= 0 {
		return
	}
	first, last := off/b, (off+n-1)/b
	s.crcMu.Lock()
	for idx := first; idx <= last; idx++ {
		s.crcValid[idx>>6] &^= 1 << (idx & 63)
		w := s.crcBusy[idx]
		w.writers++
		if w.writers > 1 {
			w.overlapped = true
		}
		s.crcBusy[idx] = w
	}
	s.crcMu.Unlock()
}

// releaseBlock drops one in-flight writer from a block and reports
// whether the finished write overlapped no other — only then does its
// payload provably match the store bytes, making its CRC safe to
// publish. Caller holds crcMu.
func (s *Server) releaseBlock(idx int64) bool {
	w, ok := s.crcBusy[idx]
	if !ok {
		return false
	}
	w.writers--
	if w.writers <= 0 {
		delete(s.crcBusy, idx)
		return !w.overlapped
	}
	s.crcBusy[idx] = w
	return false
}

// endWrite closes out a successfully applied write of p at off:
// block-aligned writes publish per-block CRCs (reusing the verified
// carried CRC for the exactly-one-block case, which is what the
// cluster sends, so the common path never checksums twice) — but only
// for blocks whose write overlapped no concurrent writer; unaligned
// writes just release their blocks, leaving them invalid.
func (s *Server) endWrite(off int64, p []byte, known uint32, haveKnown bool) {
	b := s.crcBlock
	if b == 0 || len(p) == 0 {
		return
	}
	n := int64(len(p))
	aligned := off%b == 0 && n%b == 0
	first, last := off/b, (off+n-1)/b
	for idx := first; idx <= last; idx++ {
		var crc uint32
		if aligned {
			if n == b && haveKnown {
				crc = known
			} else {
				blk := idx - first
				crc = crc32c.Sum(p[blk*b : (blk+1)*b])
			}
		}
		s.crcMu.Lock()
		if clean := s.releaseBlock(idx); clean && aligned {
			s.crcSums[idx] = crc
			s.crcValid[idx>>6] |= 1 << (idx & 63)
		}
		s.crcMu.Unlock()
	}
}

// abortWrite closes out a failed or rejected write: the in-flight marks
// are released without publishing anything, so the blocks stay invalid
// (the store may hold a torn or corrupt payload).
func (s *Server) abortWrite(off, n int64) {
	b := s.crcBlock
	if b == 0 || n <= 0 {
		return
	}
	first, last := off/b, (off+n-1)/b
	s.crcMu.Lock()
	for idx := first; idx <= last; idx++ {
		s.releaseBlock(idx)
	}
	s.crcMu.Unlock()
}
