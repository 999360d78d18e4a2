package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// This file tests request framing: the splitter on its own (a table and
// a fuzz target over injected limits), and the client ops that walk it,
// over every transport and CRC pairing, with limits small enough that a
// few kilobytes take many frames.

func lens(ns ...int) []Vec {
	vecs := make([]Vec, len(ns))
	for i, n := range ns {
		vecs[i] = Vec{Off: int64(i), Len: n}
	}
	return vecs
}

func TestFrameEnd(t *testing.T) {
	lim := frameLimits{vecs: 4, bytes: 100}
	for _, tc := range []struct {
		name      string
		vecs      []Vec
		lo        int
		wantHi    int
		wantBytes int64
		wantErr   bool
	}{
		{"nothing left", lens(1, 2), 2, 2, 0, false},
		{"all fits", lens(10, 20, 30), 0, 3, 60, false},
		{"cut by count", lens(1, 1, 1, 1, 1, 1), 0, 4, 4, false},
		{"rest after a count cut", lens(1, 1, 1, 1, 1, 1), 4, 6, 2, false},
		{"cut by bytes", lens(60, 40, 1), 0, 2, 100, false},
		{"cut before the range that overflows", lens(60, 41), 0, 1, 60, false},
		{"empty ranges count as ranges", lens(0, 0, 0, 0, 0), 0, 4, 0, false},
		{"empty range after a full frame still fits", lens(100, 0), 0, 2, 100, false},
		{"one range of exactly the limit", lens(100), 0, 1, 100, false},
		{"one range over the limit", lens(101), 0, 0, 0, true},
		{"negative length", lens(-1), 0, 0, 0, true},
		{"unframeable range behind good ones", lens(10, 101), 0, 0, 0, true},
		{"unframeable range beyond this frame", lens(60, 60, 101), 0, 1, 60, false},
		{"unframeable range reached", lens(60, 60, 101), 1, 1, 0, true},
	} {
		hi, n, err := frameEnd(tc.vecs, tc.lo, lim)
		if (err != nil) != tc.wantErr || hi != tc.wantHi || n != tc.wantBytes {
			t.Errorf("%s: frameEnd = (%d, %d, %v), want (%d, %d, error %v)", tc.name, hi, n, err, tc.wantHi, tc.wantBytes, tc.wantErr)
		}
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: rejection %v does not wrap ErrProtocol", tc.name, err)
		}
	}
	// Production limits are the protocol's: what checkCount and admit
	// enforce at the server.
	if wireLimits.vecs != MaxVecCount || wireLimits.bytes != MaxIOSize {
		t.Fatalf("wireLimits = %+v, want the protocol constants", wireLimits)
	}
}

// FuzzFrameEnd walks arbitrary requests under arbitrary limits: the
// frames partition the request in order, each is within both limits and
// maximal (one more range would break a limit), and the walk is refused
// exactly when it reaches a range no frame can carry.
func FuzzFrameEnd(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 0, 30}, uint8(4), uint16(100))
	f.Add([]byte{0, 60, 0, 60, 0, 101}, uint8(4), uint16(100))
	f.Add([]byte{0xFF, 0xFF}, uint8(1), uint16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, maxVecs uint8, maxBytes uint16) {
		lim := frameLimits{vecs: int(maxVecs)%8 + 1, bytes: int64(maxBytes)}
		vecs := make([]Vec, len(raw)/2)
		for i := range vecs {
			vecs[i] = Vec{Len: int(int16(binary.BigEndian.Uint16(raw[2*i:])))}
		}
		framable := func(v Vec) bool { return v.Len >= 0 && int64(v.Len) <= lim.bytes }
		for lo := 0; lo < len(vecs); {
			hi, n, err := frameEnd(vecs, lo, lim)
			if err != nil {
				// Refused: the scan met an unframeable range before either
				// limit ended the frame.
				var sum int64
				for i := lo; i < len(vecs) && i-lo < lim.vecs; i++ {
					if !framable(vecs[i]) {
						return
					}
					if sum += int64(vecs[i].Len); sum > lim.bytes {
						break
					}
				}
				t.Fatalf("frame at %d refused (%v) with no unframeable range in reach", lo, err)
			}
			if hi <= lo || hi > len(vecs) {
				t.Fatalf("frame at %d ends at %d of %d: no progress or out of range", lo, hi, len(vecs))
			}
			var sum int64
			for _, v := range vecs[lo:hi] {
				if !framable(v) {
					t.Fatalf("frame [%d,%d) carries unframeable range %+v", lo, hi, v)
				}
				sum += int64(v.Len)
			}
			if sum != n || n > lim.bytes || hi-lo > lim.vecs {
				t.Fatalf("frame [%d,%d) of %d bytes (reported %d) breaks limits %+v", lo, hi, sum, n, lim)
			}
			if hi < len(vecs) && hi-lo < lim.vecs && framable(vecs[hi]) && n+int64(vecs[hi].Len) <= lim.bytes {
				t.Fatalf("frame [%d,%d) is not maximal under %+v: range %d fits", lo, hi, lim, hi)
			}
			lo = hi
		}
	})
}

// framing is one transport × CRC pairing of the client-level tests.
type framing struct {
	name           string
	pipelined, crc bool
}

var framings = []framing{
	{"sync", false, false},
	{"sync-crc", false, true},
	{"pipelined", true, false},
	{"pipelined-crc", true, true},
}

const frameBlk = 64 // CRC sidecar block, and the unit every test range is cut from

// hookStore hides MemStore's Slice (only Store's methods are promoted),
// forcing the pooled write path, and calls hook before each WriteAt at
// offset at.
type hookStore struct {
	Store
	at   int64
	hook func()
}

func (s hookStore) WriteAt(p []byte, off int64) (int, error) {
	if off == s.at {
		s.hook()
	}
	return s.Store.WriteAt(p, off)
}

// rotStore returns the byte at offset at flipped on every read that
// covers it: rot the write-time sidecar checksum does not match. (Flipping
// it in the MemStore from the test goroutine would race the server's own
// accesses as far as the race detector can see.)
type rotStore struct {
	Store
	at int64
}

func (s rotStore) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.Store.ReadAt(p, off)
	if i := s.at - off; i >= 0 && i < int64(n) {
		p[i] ^= 0xFF
	}
	return n, err
}

// startFrameServer serves size bytes (behind wrap, when non-nil) with a
// CRC sidecar and metrics, so tests can count the data frames that
// arrived (a dial's feature exchange is not one).
func startFrameServer(t *testing.T, size int64, wrap func(Store) Store) (addr string, frames func() int64) {
	t.Helper()
	var store Store = dev.NewMemStore(size)
	if wrap != nil {
		store = wrap(store)
	}
	m := NewMetrics()
	srv := NewStoreServer(store, WithCRC(frameBlk), WithMetrics(m))
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return a.String(), func() int64 {
		var n int64
		for name, op := range m.Snapshot().Ops {
			if name != "features" {
				n += op.Ops
			}
		}
		return n
	}
}

// dialFraming dials addr in the given framing with lim injected.
func dialFraming(t *testing.T, addr string, f framing, lim frameLimits) *Client {
	t.Helper()
	var features byte
	if f.crc {
		features |= FeatureCRC
	}
	if f.pipelined {
		features |= FeaturePipeline
	}
	c, err := DialConfig(addr, Config{Features: features})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.HasCRC() != f.crc || c.HasPipeline() != f.pipelined {
		t.Fatalf("negotiated crc=%v pipeline=%v, want %+v", c.HasCRC(), c.HasPipeline(), f)
	}
	c.lim = lim
	return c
}

// frameCount is how many frames the splitter cuts vecs into under lim.
func frameCount(t *testing.T, vecs []Vec, lim frameLimits) (frames int64) {
	t.Helper()
	for lo := 0; lo < len(vecs); frames++ {
		hi, _, err := frameEnd(vecs, lo, lim)
		if err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	return frames
}

// waitFrames waits for the server's frame counter to advance by want
// since before: a server folds a request into its metrics after it has
// answered it, so the counter can trail the client call by a moment.
func waitFrames(t *testing.T, frames func() int64, before, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for frames()-before != want {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d frames, want %d", frames()-before, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// mixedRequest is 23 block-aligned ranges of one to three blocks, out of
// offset order, with a payload each.
func mixedRequest(seed int64) (vecs []Vec, data [][]byte, size int64) {
	rng := rand.New(rand.NewSource(seed))
	var off int64
	for i := 0; i < 23; i++ {
		n := (1 + i%3) * frameBlk
		vecs = append(vecs, Vec{Off: off, Len: n})
		p := make([]byte, n)
		rng.Read(p)
		data = append(data, p)
		off += int64(n)
	}
	rng.Shuffle(len(vecs), func(i, j int) {
		vecs[i], vecs[j] = vecs[j], vecs[i]
		data[i], data[j] = data[j], data[i]
	})
	return vecs, data, off
}

func buffersFor(vecs []Vec) [][]byte {
	bufs := make([][]byte, len(vecs))
	for i, v := range vecs {
		bufs[i] = make([]byte, v.Len)
	}
	return bufs
}

// TestMultiFrameByteIdentical: a request many frames long moves the same
// bytes as the same request in one frame — scatter, gather, CrcV and the
// one-range ops — and reaches the server as exactly the frames the
// splitter cuts.
func TestMultiFrameByteIdentical(t *testing.T) {
	lim := frameLimits{vecs: 4, bytes: 5 * frameBlk}
	ctx := context.Background()
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			vecs, data, size := mixedRequest(21)
			addr, frames := startFrameServer(t, size, nil)
			small := dialFraming(t, addr, f, lim)
			whole := dialFraming(t, addr, f, wireLimits)
			want := frameCount(t, vecs, lim)
			if want < 6 {
				t.Fatalf("request is only %d frames: the test would not exercise the walk", want)
			}

			before := frames()
			if applied, err := small.WriteVCtx(ctx, vecs, data); err != nil || applied != len(vecs) {
				t.Fatalf("multi-frame scatter: applied %d of %d, %v", applied, len(vecs), err)
			}
			waitFrames(t, frames, before, want)
			oneFrame := buffersFor(vecs)
			before = frames()
			if err := whole.ReadVCtx(ctx, vecs, oneFrame); err != nil {
				t.Fatal(err)
			}
			waitFrames(t, frames, before, 1)
			for i := range vecs {
				if !bytes.Equal(oneFrame[i], data[i]) {
					t.Fatalf("range %d: single-frame read-back differs from what the multi-frame scatter wrote", i)
				}
			}

			manyFrames := buffersFor(vecs)
			before = frames()
			if err := small.ReadVCtx(ctx, vecs, manyFrames); err != nil {
				t.Fatalf("multi-frame gather: %v", err)
			}
			waitFrames(t, frames, before, want)
			for i := range vecs {
				if !bytes.Equal(manyFrames[i], oneFrame[i]) {
					t.Fatalf("range %d: multi-frame gather differs from the single-frame one", i)
				}
			}

			if f.crc {
				a, b := make([]uint32, len(vecs)), make([]uint32, len(vecs))
				before = frames()
				if err := small.CrcV(ctx, vecs, a); err != nil {
					t.Fatalf("multi-frame CrcV: %v", err)
				}
				waitFrames(t, frames, before, want)
				if err := whole.CrcV(ctx, vecs, b); err != nil {
					t.Fatal(err)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("range %d: multi-frame CrcV %#08x, single-frame %#08x", i, a[i], b[i])
					}
				}
			}

			// The one-range ops cut by bytes: the whole store in frames of
			// lim.bytes, the last one short.
			image := make([]byte, size)
			rand.New(rand.NewSource(22)).Read(image)
			cuts := (size + lim.bytes - 1) / lim.bytes
			before = frames()
			if n, err := small.WriteAtCtx(ctx, image, 0); err != nil || n != len(image) {
				t.Fatalf("multi-frame WriteAt: %d, %v", n, err)
			}
			waitFrames(t, frames, before, cuts)
			got := make([]byte, size)
			before = frames()
			if n, err := small.ReadAtCtx(ctx, got, 0); err != nil || n != len(got) {
				t.Fatalf("multi-frame ReadAt: %d, %v", n, err)
			}
			waitFrames(t, frames, before, cuts)
			if !bytes.Equal(got, image) {
				t.Fatal("multi-frame ReadAt differs from what the multi-frame WriteAt wrote")
			}
		})
	}
}

// TestMultiFrameRemoteErrorCredits: a store-level rejection in a later
// frame stops the walk there, and applied counts the ranges of the
// frames before it plus that frame's own applied prefix — exactly the
// ranges that are durable — with the connection still usable.
func TestMultiFrameRemoteErrorCredits(t *testing.T) {
	lim := frameLimits{vecs: 4, bytes: 1 << 20}
	ctx := context.Background()
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			const ranges, bad = 11, 6 // frame 2 is ranges 4..7: two applied, then the bad one
			addr, frames := startFrameServer(t, ranges*frameBlk, nil)
			c := dialFraming(t, addr, f, lim)
			sentinel := bytes.Repeat([]byte{0xEE}, ranges*frameBlk)
			if _, err := c.WriteAtCtx(ctx, sentinel, 0); err != nil {
				t.Fatal(err)
			}
			vecs, data := make([]Vec, ranges), make([][]byte, ranges)
			for i := range vecs {
				vecs[i] = Vec{Off: int64(i) * frameBlk, Len: frameBlk}
				data[i] = bytes.Repeat([]byte{byte(i + 1)}, frameBlk)
			}
			vecs[bad].Off = 1 << 30 // outside the store
			before := frames()
			applied, err := c.WriteVCtx(ctx, vecs, data)
			if !IsRemote(err) {
				t.Fatalf("want a remote error, got %v", err)
			}
			if applied != bad {
				t.Fatalf("applied = %d, want %d (frame 1's four ranges plus frame 2's prefix of two)", applied, bad)
			}
			waitFrames(t, frames, before, 2) // the walk stopped: frame 3 never left
			if c.Broken() != nil {
				t.Fatal("a remote error in a later frame poisoned the connection")
			}
			got := make([]byte, ranges*frameBlk)
			if _, err := c.ReadAtCtx(ctx, got, 0); err != nil {
				t.Fatalf("connection unusable after the remote error: %v", err)
			}
			for i := 0; i < ranges; i++ {
				want := sentinel[:frameBlk]
				if i < bad {
					want = data[i]
				}
				if !bytes.Equal(got[i*frameBlk:(i+1)*frameBlk], want) {
					t.Fatalf("range %d: applied ranges are [0,%d), the rest must keep the sentinel", i, bad)
				}
			}
			// The gather stops at its failing frame the same way.
			vecs[bad].Off = 1 << 30
			if err := c.ReadVCtx(ctx, vecs, buffersFor(vecs)); !IsRemote(err) {
				t.Fatalf("gather with an out-of-store range in frame 2: %v, want a remote error", err)
			}
		})
	}
}

// TestMultiFrameCRCVerdictIsRequestRelative: rot under a range that
// travels in a later frame is reported at the range's index in the
// caller's request, not in the frame.
func TestMultiFrameCRCVerdictIsRequestRelative(t *testing.T) {
	lim := frameLimits{vecs: 3, bytes: 1 << 20}
	ctx := context.Background()
	for _, f := range framings {
		if !f.crc {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			const ranges, rotten = 8, 7 // frames are ranges 0..2, 3..5, 6..7
			addr, _ := startFrameServer(t, ranges*frameBlk, func(mem Store) Store {
				return rotStore{Store: mem, at: rotten*frameBlk + 5}
			})
			c := dialFraming(t, addr, f, lim)
			vecs, data := make([]Vec, ranges), make([][]byte, ranges)
			for i := range vecs {
				vecs[i] = Vec{Off: int64(i) * frameBlk, Len: frameBlk}
				data[i] = bytes.Repeat([]byte{byte(i + 1)}, frameBlk)
			}
			if _, err := c.WriteVCtx(ctx, vecs, data); err != nil {
				t.Fatal(err)
			}
			dst := buffersFor(vecs)
			err := c.ReadVCtx(ctx, vecs, dst)
			var ce *CRCError
			if !errors.As(err, &ce) {
				t.Fatalf("gather over rot: %v, want a CRCError", err)
			}
			if ce.Range != rotten || ce.Write {
				t.Fatalf("CRCError = %+v, want read range %d of the request", ce, rotten)
			}
			for i := 0; i < rotten; i++ {
				if !bytes.Equal(dst[i], data[i]) {
					t.Fatalf("clean range %d not delivered ahead of the verdict", i)
				}
			}
			if c.Broken() != nil {
				t.Fatal("a CRC verdict poisoned the connection")
			}
		})
	}
}

// TestMultiFrameTearCreditsNothing: when the transport dies mid-request
// the client cannot know what the frame in flight applied, so applied
// is 0 — even though earlier frames were acknowledged — and the
// connection reports broken.
func TestMultiFrameTearCreditsNothing(t *testing.T) {
	lim := frameLimits{vecs: 2, bytes: 1 << 20}
	ctx := context.Background()
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			const ranges = 6
			// The server's write of range 3 (frame 2) waits for the test to
			// close the client's socket under it.
			hit, closed := make(chan struct{}), make(chan struct{})
			addr, _ := startFrameServer(t, ranges*frameBlk, func(mem Store) Store {
				return hookStore{Store: mem, at: 3 * frameBlk, hook: func() {
					hit <- struct{}{}
					<-closed
				}}
			})
			c := dialFraming(t, addr, f, lim)
			go func() {
				<-hit
				c.conn.Close()
				close(closed)
			}()
			vecs, data := make([]Vec, ranges), make([][]byte, ranges)
			for i := range vecs {
				vecs[i] = Vec{Off: int64(i) * frameBlk, Len: frameBlk}
				data[i] = bytes.Repeat([]byte{byte(i + 1)}, frameBlk)
			}
			applied, err := c.WriteVCtx(ctx, vecs, data)
			if err == nil || IsRemote(err) || IsCRC(err) {
				t.Fatalf("scatter across a torn connection: %v, want a transport error", err)
			}
			if applied != 0 {
				t.Fatalf("applied = %d after a tear, want 0", applied)
			}
			if c.Broken() == nil {
				t.Fatal("Broken() = nil after a transport tear")
			}
		})
	}
}

// TestUnframeableRangeRefused: the one client-side rejection left. It
// is raised before the range's frame touches the wire, so the
// connection stays healthy, and the frames before it were applied.
func TestUnframeableRangeRefused(t *testing.T) {
	lim := frameLimits{vecs: 2, bytes: 2 * frameBlk}
	ctx := context.Background()
	for _, f := range framings {
		t.Run(f.name, func(t *testing.T) {
			addr, frames := startFrameServer(t, 16*frameBlk, nil)
			c := dialFraming(t, addr, f, lim)
			vecs := []Vec{{Off: 0, Len: frameBlk}, {Off: frameBlk, Len: frameBlk}, {Off: 4 * frameBlk, Len: 3 * frameBlk}}
			data := buffersFor(vecs)
			before := frames()
			applied, err := c.WriteVCtx(ctx, vecs, data)
			if !errors.Is(err, ErrProtocol) || applied != 2 {
				t.Fatalf("scatter with an unframeable third range: applied %d, %v; want 2 and a protocol error", applied, err)
			}
			if err := c.ReadVCtx(ctx, vecs[2:], data[2:]); !errors.Is(err, ErrProtocol) {
				t.Fatalf("gather of an unframeable range: %v, want a protocol error", err)
			}
			waitFrames(t, frames, before, 1)
			if c.Broken() != nil {
				t.Fatal("a client-side rejection poisoned the connection")
			}
			if _, err := c.Size(); err != nil {
				t.Fatalf("connection unusable after a client-side rejection: %v", err)
			}
		})
	}
}
