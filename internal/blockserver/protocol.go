// Package blockserver exports one disk's store over TCP with a small
// length-prefixed binary protocol (an NBD-style remote block device):
// internal/cluster stripes a volume over one such backend per disk. The
// client side implements io.ReaderAt/io.WriterAt plus the vectored,
// checksummed and pipelined operations the volume runs. A server knows
// nothing of the volume its disk belongs to; failure handling, rebuild
// and scrub are the volume's.
//
// Protocol, all integers big-endian:
//
//	request  = op(1) | payload
//	response = status(1) | payload        status 0 = ok, 1 = error, 2 = crc
//	error payload = len(4) | message
//	crc payload   = failed(4) | want(4) | got(4)
//
//	OpRead     req: off(8) len(4)          ok: len(4) data
//	OpWrite    req: off(8) len(4) data     ok: -
//	OpSize     req: -                      ok: size(8)
//	(4–7)      retired: the device-management opcodes of a whole-device
//	           server; never reused, torn like any unknown opcode
//	OpReadV    req: count(4) | count*(off(8) len(4))
//	                                       ok: total(4) | concatenated data
//	OpWriteV   req: count(4) | count*(off(8) len(4) data)
//	                                       ok: applied(4)
//	                                       err: failed(4) | len(4) | message
//	OpFeatures req: flags(1)               ok: flags(1) | crcblock(4)
//	OpReadVC   req: count(4) | count*(off(8) len(4))
//	                                       ok: total(4) | count*crc(4) | data
//	OpWriteVC  req: count(4) | count*(off(8) len(4) crc(4) data)
//	                                       ok: applied(4)
//	                                       err: failed(4) | len(4) | message
//	                                       crc: failed(4) | want(4) | got(4)
//	OpCrcV     req: count(4) | count*(off(8) len(4))
//	                                       ok: count*crc(4)
//
// OpReadV gathers up to MaxVecCount element-granular ranges in one round
// trip, so a cluster-level stripe read does not pay one network round
// trip per element. OpWriteV is its scatter twin: up to MaxVecCount
// ranges (total payload bounded by MaxIOSize) applied in request order
// in one round trip. Ranges are applied as they are decoded; on a
// store-level error at range i the server drains the rest of the frame
// to stay synchronized and answers with an extended error response
// carrying failed = i, so the client can credit the leading i ranges as
// durably applied. Every decoded range, of every data opcode, is checked
// against the store size before the store is touched; a range outside
// the store is a store-level error like any other (remote error, stream
// synchronized). Framing violations (bad count, oversized ranges,
// truncated payload) tear the connection without a response, and the
// range being decoded when the stream died is never partially applied
// (except by a direct-store server, which trades that guarantee for the
// zero-copy receive path; see DESIGN.md §12).
//
// OpFeatures negotiates optional capabilities: the client sends the
// flags it wants, the server answers with the subset it grants plus its
// CRC block size. Servers predating OpFeatures tear the connection on
// the unknown opcode, which the client treats as "no features" and
// redials plain — old and new peers always interoperate. OpReadVC /
// OpWriteVC are the CRC-carrying twins of OpReadV / OpWriteV
// (FeatureCRC must be granted): one CRC-32C per range, verified by the
// receiving end, so corruption anywhere past the sender's checksum pass
// — wire, buffers, or the store itself for ranges covered by the
// server's CRC sidecar — is detected instead of returned as data. A
// server-side CRC mismatch on write is answered with the statusCRC
// response (stream synchronized, leading `failed` ranges applied, like
// the extended write error). OpCrcV returns freshly recomputed CRCs of
// store content without the data; Volume.Scrub uses it to compare
// replicas without shipping every byte.
package blockserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Opcodes. Bytes 4–7 carried the management opcodes of the retired
// whole-device server (fail, rebuild, scrub, health); they are never
// reused, and a server treats them as it treats any unknown opcode.
const (
	OpRead     byte = 1
	OpWrite    byte = 2
	OpSize     byte = 3
	OpReadV    byte = 8
	OpWriteV   byte = 9
	OpFeatures byte = 10
	OpReadVC   byte = 11
	OpWriteVC  byte = 12
	OpCrcV     byte = 13
)

// Status codes.
const (
	statusOK  byte = 0
	statusErr byte = 1
	statusCRC byte = 2
)

// Feature flags carried in OpFeatures.
const (
	// FeatureCRC enables the CRC-carrying vector opcodes (OpReadVC,
	// OpWriteVC, OpCrcV). Granted only by servers running with WithCRC.
	FeatureCRC byte = 1 << 0
	// FeaturePipeline switches the connection to the tagged, pipelined
	// framing after the OpFeatures exchange completes: every request
	// carries a 32-bit tag, responses may complete out of order, and
	// both ends coalesce frames into vectored writes. Payload layouts
	// are identical to the synchronous framing:
	//
	//	request  = op(1) | tag(4) | payload
	//	response = tag(4) | status(1) | payload
	//
	// Old servers tear the probe connection on OpFeatures (the client
	// redials plain), and servers that recognize OpFeatures but predate
	// this flag simply do not grant it — either way the client falls
	// back to the synchronous one-op-per-connection path. See DESIGN.md
	// §16 for the window/coalescing design.
	FeaturePipeline byte = 1 << 1
)

// MaxIOSize bounds a single read or write payload (a protocol sanity
// limit, not a device limit). An OpReadV response and an OpWriteV
// request count the sum of their ranges against the same limit.
const MaxIOSize = 64 << 20

// MaxVecCount bounds the number of ranges in one OpReadV or OpWriteV
// request.
const MaxVecCount = 4096

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("blockserver: protocol violation")

// Vec is one range of an OpReadV gather request.
type Vec struct {
	Off int64
	Len int
}

// RemoteError is an application-level error reported by the server (the
// store rejected the operation). The connection remains
// synchronized after one: the full response frame was consumed, so the
// client keeps using it. Transport and framing errors are NOT
// RemoteErrors and poison the client connection.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "blockserver: remote: " + e.Msg }

// IsRemote reports whether err is (or wraps) a server-side RemoteError,
// as opposed to a transport, timeout, or framing failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// CRCError reports a per-range CRC-32C mismatch: the client caught
// corrupted read data, or the server rejected corrupted write data. The
// stream stays synchronized after one (both ends consumed their full
// frames), so like a RemoteError it does not poison the connection —
// but unlike one it means the bytes, not the operation, are bad, so
// callers fail over to another replica rather than retry here.
type CRCError struct {
	// Range is the index of the first mismatching range in the request.
	Range int
	// Want is the expected checksum, Got the checksum of the bytes that
	// actually arrived.
	Want, Got uint32
	// Write is true when the server rejected a write, false when the
	// client caught a corrupt read.
	Write bool
}

// Error implements error.
func (e *CRCError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("blockserver: crc mismatch on %s range %d: want %#08x, got %#08x",
		dir, e.Range, e.Want, e.Got)
}

// IsCRC reports whether err is (or wraps) a CRCError. A nil err — what a
// read path asks about most — costs nothing; any other allocates the
// target errors.As needs.
func IsCRC(err error) bool {
	if err == nil {
		return false
	}
	var ce *CRCError
	return errors.As(err, &ce)
}

// ErrNoCRC is returned by Client.CrcV when the connection did not
// negotiate FeatureCRC. It is returned before anything touches the
// wire, so the connection stays healthy; the pool treats it like a
// remote error (no retry, no dead-marking).
var ErrNoCRC = errors.New("blockserver: crc feature not negotiated")

// framePool recycles request/response frame buffers so the read/write
// hot path allocates nothing per request at steady state.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func getFrame(n int) *[]byte {
	p := framePool.Get().(*[]byte)
	growFrame(p, n)
	return p
}

// growFrame resizes a pooled frame to n bytes, reallocating only when
// its backing array is too small, and returns the resized slice.
func growFrame(p *[]byte, n int) []byte {
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return *p
}

func putFrame(p *[]byte) { framePool.Put(p) }

// Vec header sizes on the wire: off(8) len(4), plus crc(4) in the
// CRC-carrying write opcode.
const (
	vecHdrSize    = 12
	vecHdrCRCSize = 16
)

// putVecHdr encodes v's off|len header into b[:vecHdrSize]. Every
// encoder of a vector range — client request builders and tests alike —
// goes through here so the wire layout is single-sourced.
func putVecHdr(b []byte, v Vec) {
	binary.BigEndian.PutUint64(b, uint64(v.Off))
	binary.BigEndian.PutUint32(b[8:], uint32(v.Len))
}

// getVecHdr decodes an off|len header from b[:vecHdrSize].
func getVecHdr(b []byte) Vec {
	return Vec{
		Off: int64(binary.BigEndian.Uint64(b)),
		Len: int(binary.BigEndian.Uint32(b[8:])),
	}
}

// checkCount applies MaxVecCount to a vector request's range count. A
// server tears the connection on a violation: the count sizes the header
// block that follows, so the frame boundary cannot be trusted.
func checkCount(n int64) error {
	if n < 1 || n > MaxVecCount {
		return fmt.Errorf("%w: %d ranges outside [1,%d]", ErrProtocol, n, MaxVecCount)
	}
	return nil
}

// admit applies MaxIOSize to one more range of a request whose ranges
// so far sum to *total. A server runs every range through it as it
// decodes (where a violation in a write means the payload boundary
// cannot be trusted and the connection is torn); a client never sends a
// frame that fails it, because frameEnd cut the request under the same
// limits. The sum is an int64 because on 32-bit platforms int(uint32)
// can go negative and slip past a limit check.
func admit(v Vec, total *int64) error {
	if v.Len < 0 || v.Len > MaxIOSize {
		return fmt.Errorf("%w: range of %d bytes exceeds limit", ErrProtocol, uint32(v.Len))
	}
	if *total += int64(v.Len); *total > MaxIOSize {
		return fmt.Errorf("%w: request of %d bytes exceeds limit", ErrProtocol, *total)
	}
	return nil
}

// checkVec validates one admitted range against the store size before
// the store is touched. The comparison never forms Off+Len, which a
// hostile offset near MaxInt64 would wrap.
func checkVec(v Vec, size int64) error {
	if v.Off < 0 || v.Off > size-int64(v.Len) {
		return fmt.Errorf("range of %d bytes at offset %d outside store of %d bytes", v.Len, v.Off, size)
	}
	return nil
}

// frameLimits are the bounds one request frame must stay within: its
// range count and its summed payload. Every client frames under
// wireLimits, the limits the server enforces (checkCount, admit); they
// are a value rather than the constants so tests can walk the
// multi-frame paths without moving gigabytes.
type frameLimits struct {
	vecs  int
	bytes int64
}

var wireLimits = frameLimits{vecs: MaxVecCount, bytes: MaxIOSize}

// frameEnd cuts the next frame off a vector request: vecs[lo:hi] is the
// longest run of ranges starting at lo that one frame may carry, summing
// to the returned byte count. It is the only place a client applies the
// protocol limits — every vector op walks its request with it, frame by
// frame — and a range no frame can carry is the one thing it refuses.
func frameEnd(vecs []Vec, lo int, lim frameLimits) (hi int, bytes int64, err error) {
	for hi = lo; hi < len(vecs) && hi-lo < lim.vecs; hi++ {
		n := int64(vecs[hi].Len)
		if n < 0 || n > lim.bytes {
			return lo, 0, fmt.Errorf("%w: range %d of %d bytes exceeds the %d-byte frame limit",
				ErrProtocol, hi, uint32(vecs[hi].Len), lim.bytes)
		}
		if bytes+n > lim.bytes {
			break
		}
		bytes += n
	}
	return hi, bytes, nil
}

// checkBufs matches a vector request's buffers against its ranges,
// length for length. An empty request is valid.
func checkBufs(name string, vecs []Vec, bufs [][]byte) error {
	if len(vecs) != len(bufs) {
		return fmt.Errorf("blockserver: %s has %d ranges but %d buffers", name, len(vecs), len(bufs))
	}
	for i, v := range vecs {
		if len(bufs[i]) != v.Len {
			return fmt.Errorf("blockserver: %s buffer %d has %d bytes for a %d-byte range", name, i, len(bufs[i]), v.Len)
		}
	}
	return nil
}
