package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// requests sums the operations every backend of v has been handed.
func requests(v *Volume) int64 {
	var sum int64
	for _, b := range v.Health().Backends {
		sum += b.Requests
	}
	return sum
}

// TestPiecesAgainstReference drives ReadPiecesCtx and WritePiecesCtx
// over every redundancy scheme, WireCRC included, against a flat byte
// reference: piece lists with unaligned first and last pieces,
// sub-element pieces and whole stripes are written and read back, every
// copy (and every parity row) compared store against store; pieces whose
// stripes descend, or that share a stripe, are refused before any
// backend is asked for anything — and the same pieces sorted are
// accepted; and a piece list whose middle piece lives on a failed disk
// is served by the surviving copies.
func TestPiecesAgainstReference(t *testing.T) {
	const n, stripes, es = 3, 6, 64
	const S = n * n * es // one stripe of logical bytes
	three := raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1))
	type piece struct{ off, len int }
	type step struct {
		name   string
		pieces []piece
		fail   raid.DiskID // failed before the step, when set
		refuse bool
	}
	steps := []step{
		{name: "unaligned first and last pieces", pieces: []piece{{13, S - 13}, {2 * S, S}, {4*S + es, 2*es + 7}}},
		{name: "one piece across stripes", pieces: []piece{{S + 7, 2*S - 20}}},
		{name: "sub-element pieces", pieces: []piece{{S + 5, 10}, {3*S + es + 1, es - 2}, {5 * S, 1}}},
		{name: "descending stripes", pieces: []piece{{3*S + 3, 40}, {S, es}}, refuse: true},
		{name: "the same pieces sorted", pieces: []piece{{S, es}, {3*S + 3, 40}}},
		{name: "two pieces in one stripe", pieces: []piece{{S, 10}, {S + 100, 10}}, refuse: true},
		{name: "overlapping pieces", pieces: []piece{{2 * S, 100}, {2*S + 50, 10}}, refuse: true},
		{name: "a disk failed mid-list", pieces: []piece{{3, es}, {S + es + 9, S}, {3*S + 1, 2*S - 2}},
			fail: raid.DiskID{Role: raid.RoleData, Index: 1}},
	}
	for _, tc := range []struct {
		name string
		arch *raid.Mirror
		crc  bool
	}{
		{"mirror", raid.NewMirror(layout.NewShifted(n)), false},
		{"mirror+parity", raid.NewMirrorWithParity(layout.NewShifted(n)), false},
		{"three-mirror", three, false},
		{"mirror/crc", raid.NewMirror(layout.NewShifted(n)), true},
		{"mirror+parity/crc", raid.NewMirrorWithParity(layout.NewShifted(n)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The stores are compared directly between writes the servers
			// apply: the lock shows the race detector their order.
			opts := []backendOpt{withOrderedStores()}
			cfg := fastConfig(es, stripes)
			if tc.crc {
				opts = append(opts, withCRC(es))
				cfg.WireCRC = true
			}
			backends := startBackends(t, tc.arch, es, stripes, opts...)
			v, err := New(tc.arch, backends.addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(v.Close)
			ref := randomPayload(t, v, 41)
			rng := rand.New(rand.NewSource(42))
			ctx := context.Background()
			for _, st := range steps {
				if st.fail != (raid.DiskID{}) {
					if err := v.Fail(st.fail); err != nil {
						t.Fatal(err)
					}
				}
				pieces := make([]Piece, len(st.pieces))
				for i, p := range st.pieces {
					pieces[i] = Piece{Buf: make([]byte, p.len), Off: int64(p.off)}
					rng.Read(pieces[i].Buf)
				}
				before := requests(v)
				werr := v.WritePiecesCtx(ctx, pieces)
				rerr := v.ReadPiecesCtx(ctx, pieces)
				if st.refuse {
					if !errors.Is(werr, errPieceOrder) || !errors.Is(rerr, errPieceOrder) {
						t.Fatalf("%s: write %v, read %v; want both refused", st.name, werr, rerr)
					}
					if after := requests(v); after != before {
						t.Fatalf("%s: refused pieces made %d backend requests", st.name, after-before)
					}
					continue
				}
				if werr != nil || rerr != nil {
					t.Fatalf("%s: write %v, read %v", st.name, werr, rerr)
				}
				for i, p := range st.pieces {
					copy(ref[p.off:], pieces[i].Buf)
				}
				// Read back into fresh buffers, and the whole volume flat.
				for i := range pieces {
					clear(pieces[i].Buf)
				}
				if err := v.ReadPiecesCtx(ctx, pieces); err != nil {
					t.Fatalf("%s: read back: %v", st.name, err)
				}
				for i, p := range st.pieces {
					if !bytes.Equal(pieces[i].Buf, ref[p.off:p.off+p.len]) {
						t.Fatalf("%s: piece %d reads back wrong", st.name, i)
					}
				}
				got := make([]byte, v.Size())
				if _, err := v.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s: volume diverges from the reference", st.name)
				}
				assertCopiesEqual(t, v, backends)
			}
			if h := v.Health(); h.DegradedReads == 0 {
				t.Fatal("no read was served around the failed disk")
			}
		})
	}
}
