package blockserver

import (
	"bytes"
	"io"
)

// frameBufSize is a synchronous connection's read buffer: 16 KiB of
// payload behind the largest fixed header that can precede it (opcode
// or status, count, one CRC-carrying range header), so a frame with up
// to 16 KiB of payload arrives in one read.
const frameBufSize = 16<<10 + 1 + 4 + vecHdrCRCSize

// frameReader is how the synchronous scheduler of either end reads its
// connection: one read syscall per small frame, and no copy of a large
// payload beyond its first buffer's worth.
//
// The first read of a frame (the server's opcode, the client's status)
// takes a buffered byte if there is one and otherwise reads once into
// the whole buffer, taking whatever has arrived. Every later read of the
// frame (Read, through the codec's io.ReadFull calls) takes what is
// buffered and then reads from the connection straight into the
// caller's memory, asking for exactly what is still missing. The buffer
// is refilled only at a frame's start and only when it is empty, so no
// more than one buffer's worth of any frame passes through it: past
// that, payloads land in store memory (the server's direct path) or in
// the caller's dst. bufio.Reader would not do: it refills
// whenever it is empty and the caller asks for less than a buffer, so
// in a multi-range frame every range header would drag up to a buffer
// of the next payload through a copy.
//
// Bytes read ahead stay buffered across frames, and handoff passes them
// on when the connection switches to the pipelined scheduler.
type frameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // buf[lo:hi] has been read off r but not consumed
}

// newFrameReader allocates the connection's buffer, once per
// connection.
func newFrameReader(r io.Reader) frameReader {
	return frameReader{r: r, buf: make([]byte, frameBufSize)}
}

// first returns the first byte of the next frame.
func (f *frameReader) first() (byte, error) {
	for f.lo == f.hi {
		n, err := f.r.Read(f.buf)
		f.lo, f.hi = 0, n
		// Bytes first: an error that came with them recurs on the next read.
		if n == 0 && err != nil {
			return 0, err
		}
	}
	b := f.buf[f.lo]
	f.lo++
	return b, nil
}

// Read continues the frame first started: from the buffer while it
// holds anything, then from the connection into p directly.
func (f *frameReader) Read(p []byte) (int, error) {
	if f.lo == f.hi {
		return f.r.Read(p)
	}
	n := copy(p, f.buf[f.lo:f.hi])
	f.lo += n
	return n, nil
}

// handoff returns the connection's stream for a scheduler that reads it
// on its own from here on — whatever is buffered, then the connection —
// and lets go of the buffer.
func (f *frameReader) handoff() io.Reader {
	r := f.r
	if f.lo < f.hi {
		r = io.MultiReader(bytes.NewReader(f.buf[f.lo:f.hi]), r)
	}
	*f = frameReader{}
	return r
}
