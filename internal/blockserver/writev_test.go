package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"

	"shiftedmirror/internal/dev"
)

func TestWriteV(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Out-of-order, mixed-size scatter in one round trip.
	vecs := []Vec{{Off: 1024, Len: 512}, {Off: 0, Len: 64}, {Off: 4095, Len: 1}}
	rng := rand.New(rand.NewSource(9))
	data := make([][]byte, len(vecs))
	for i, v := range vecs {
		data[i] = make([]byte, v.Len)
		rng.Read(data[i])
	}
	applied, err := client.WriteV(vecs, data)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(vecs) {
		t.Fatalf("applied %d of %d ranges", applied, len(vecs))
	}
	// Read the ranges back over the same connection, so the check is
	// ordered after the server's writes.
	for i, v := range vecs {
		got := make([]byte, v.Len)
		if _, err := client.ReadAt(got, v.Off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[i]) {
			t.Fatalf("range %d not applied", i)
		}
	}
	// Empty scatter is a no-op.
	if applied, err := client.WriteV(nil, nil); err != nil || applied != 0 {
		t.Fatalf("empty scatter: %d, %v", applied, err)
	}
	// Mis-sized payload buffer is rejected client-side.
	if _, err := client.WriteV([]Vec{{Off: 0, Len: 8}}, [][]byte{make([]byte, 4)}); err == nil {
		t.Fatal("mis-sized scatter buffer accepted")
	}
	// Range/buffer count mismatch is rejected client-side.
	if _, err := client.WriteV([]Vec{{Off: 0, Len: 8}}, nil); err == nil {
		t.Fatal("scatter with missing buffers accepted")
	}
	// The connection survived every client-side rejection.
	if _, err := client.Size(); err != nil {
		t.Fatalf("connection unusable after rejected scatters: %v", err)
	}
	// More ranges than one frame may carry are served in two frames (a
	// server still refuses such a frame: wire_test.go's "oversized count").
	big := make([]Vec, MaxVecCount+1)
	bufs := make([][]byte, len(big))
	for i := range big {
		big[i] = Vec{Off: int64(i % 4096), Len: 1}
		bufs[i] = []byte{byte(i>>8) ^ byte(i)}
	}
	if applied, err := client.WriteV(big, bufs); err != nil || applied != len(big) {
		t.Fatalf("scatter of %d ranges: applied %d, %v", len(big), applied, err)
	}
	got := make([]byte, 4096)
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := len(big) - 4096; i < len(big); i++ { // the last write of each byte wins
		if got[i%4096] != bufs[i][0] {
			t.Fatalf("range %d of the two-frame scatter not applied in request order", i)
		}
	}
}

func TestWriteVAgainstDevice(t *testing.T) {
	store, client := startServer(t, 1152)
	vecs := []Vec{{Off: 64, Len: 64}, {Off: 0, Len: 32}}
	data := [][]byte{bytes.Repeat([]byte{0xA5}, 64), bytes.Repeat([]byte{0x5A}, 32)}
	if applied, err := client.WriteV(vecs, data); err != nil || applied != 2 {
		t.Fatalf("scatter: %d, %v", applied, err)
	}
	got := make([]byte, 128)
	if _, err := store.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[64:128], data[0]) || !bytes.Equal(got[:32], data[1]) {
		t.Fatal("scatter mismatch")
	}
}

// TestWriteVMidBatchStoreError drives a scatter whose third range lands
// outside the store: the server must apply the leading two ranges,
// report failed index 2, drain (not apply) the trailing range, and keep
// the connection synchronized.
func TestWriteVMidBatchStoreError(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Prefill through the wire, so every later server-side access is
	// ordered by the connection's handler goroutine.
	sentinel := bytes.Repeat([]byte{0xEE}, 4096)
	if _, err := client.WriteAt(sentinel, 0); err != nil {
		t.Fatal(err)
	}
	vecs := []Vec{
		{Off: 0, Len: 64},
		{Off: 64, Len: 64},
		{Off: 1 << 20, Len: 16}, // outside the 4 KiB store
		{Off: 128, Len: 64},
	}
	data := make([][]byte, len(vecs))
	rng := rand.New(rand.NewSource(10))
	for i, v := range vecs {
		data[i] = make([]byte, v.Len)
		rng.Read(data[i])
	}
	applied, err := client.WriteV(vecs, data)
	if !IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (the ranges before the failure)", applied)
	}
	got := make([]byte, 192)
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:64], data[0]) || !bytes.Equal(got[64:128], data[1]) {
		t.Fatal("leading ranges not applied before the failure")
	}
	// The range after the failure was drained, never applied.
	if !bytes.Equal(got[128:192], sentinel[128:192]) {
		t.Fatal("range after the failed one was applied")
	}
	// Remote errors do not poison: the same connection keeps working.
	if client.Broken() != nil {
		t.Fatal("remote scatter error poisoned the connection")
	}
	if applied, err := client.WriteV(vecs[:1], data[:1]); err != nil || applied != 1 {
		t.Fatalf("connection unusable after remote scatter error: %d, %v", applied, err)
	}
}

// opaqueStore hides MemStore's Slice method (only the Store interface's
// methods are promoted), forcing the server onto the pooled-buffer path
// the way a file- or rate-limited store would.
type opaqueStore struct{ Store }

// TestServerWriteVTruncatedPayloadNeverApplied hangs up mid-payload: the
// complete leading range must be applied and no response sent. On the
// pooled path the truncated range must not be applied at all (no silent
// partial write); a direct store reads the socket straight into store
// memory, so the truncated range's content is indeterminate there (the
// documented zero-copy tradeoff) and only checked on the pooled run.
func TestServerWriteVTruncatedPayloadNeverApplied(t *testing.T) {
	t.Run("pooled", func(t *testing.T) { testWriteVTruncated(t, false) })
	t.Run("direct", func(t *testing.T) { testWriteVTruncated(t, true) })
}

func testWriteVTruncated(t *testing.T, direct bool) {
	eachTransport(t, func(t *testing.T, pipelined bool) {
		mem := dev.NewMemStore(4096)
		var store Store = mem
		if !direct {
			store = opaqueStore{mem}
		}
		srv := NewStoreServer(store)
		listenAddr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p := dialPeer(t, listenAddr.String(), pipelined)
		// Prefill over the same connection (one OpWrite frame), so the
		// connection's decode order puts it before the truncated scatter.
		sentinel := bytes.Repeat([]byte{0xEE}, 4096)
		p.send(rangeFrame(OpWrite, 0, 4096, sentinel))
		if err := p.status(); err != nil {
			t.Fatal(err)
		}
		req := scatterFrame(OpWriteV, []Vec{{Off: 0, Len: 8}, {Off: 100, Len: 8}}, []byte("ABCDEFGH"), []byte("abcdefgh"))
		p.send(req[:len(req)-5]) // 3 of the second range's promised 8 bytes
		if err := p.conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		// The server tears the connection without a response.
		p.torn()
		// Close waits for the handler goroutine, ordering the store
		// assertions below after its writes.
		srv.Close()
		got := make([]byte, 108)
		if _, err := store.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:8], []byte("ABCDEFGH")) {
			t.Fatal("complete leading range not applied")
		}
		if !direct && !bytes.Equal(got[100:108], sentinel[100:108]) {
			t.Fatalf("truncated range partially applied: %q", got[100:108])
		}
	})
}

func TestWriteVCancelledContext(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	applied, err := client.WriteVCtx(ctx, []Vec{{Off: 0, Len: 4}}, [][]byte{make([]byte, 4)})
	if err == nil || applied != 0 {
		t.Fatalf("cancelled scatter: %d, %v", applied, err)
	}
	// Cancellation before the exchange starts does not poison.
	if client.Broken() != nil {
		t.Fatal("pre-exchange cancellation poisoned the connection")
	}
	if applied, err := client.WriteV([]Vec{{Off: 0, Len: 4}}, [][]byte{make([]byte, 4)}); err != nil || applied != 1 {
		t.Fatalf("connection unusable after cancelled scatter: %d, %v", applied, err)
	}
}

// TestCancelRacingCompletion races a context's cancellation against the
// completion of the op it governs, many times over one connection. The
// cancel callback yanks the connection deadline, and it can fire at any
// point: while the op is in flight (the op fails, the connection is
// poisoned — fine), or just as the op completes. In the second case it
// must not leak past the op: an op that completed cleanly leaves a
// connection whose next op, under an uncancellable context, succeeds.
func TestCancelRacingCompletion(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	vecs, bufs := []Vec{{Off: 0, Len: 64}}, [][]byte{make([]byte, 64)}
	var client *Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	clean := 0
	for i := 0; i < 2000; i++ {
		if client == nil {
			var err error
			if client, err = Dial(addr); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		err := client.ReadVCtx(ctx, vecs, bufs)
		if err != nil {
			if client.Broken() != nil { // interrupted mid-exchange: start over
				client.Close()
				client = nil
			}
			continue
		}
		clean++
		if err := client.ReadV(vecs, bufs); err != nil {
			t.Fatalf("iteration %d: op after a cleanly completed, cancelled-late op failed: %v", i, err)
		}
	}
	if clean == 0 {
		t.Skip("no op ever beat its cancellation; nothing was exercised")
	}
}
