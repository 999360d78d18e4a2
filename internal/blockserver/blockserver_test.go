package blockserver

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// startServer serves a MemStore of the given size and connects a client,
// both torn down with the test.
func startServer(t *testing.T, size int64) (*dev.MemStore, *Client) {
	t.Helper()
	addr, store := startStoreServer(t, size)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return store, client
}

func TestRemoteReadWrite(t *testing.T) {
	store, client := startServer(t, 1152)
	size, err := client.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != store.Size() {
		t.Fatalf("remote size %d, local %d", size, store.Size())
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := client.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote round trip mismatch")
	}
	// Unaligned remote I/O.
	if _, err := client.WriteAt([]byte("over the wire"), 100); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 13)
	if _, err := client.ReadAt(small, 100); err != nil {
		t.Fatal(err)
	}
	if string(small) != "over the wire" {
		t.Fatalf("unaligned remote read: %q", small)
	}
	// The bytes landed in the store itself.
	if _, err := store.ReadAt(small, 100); err != nil || string(small) != "over the wire" {
		t.Fatalf("store holds %q, %v", small, err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, client := startServer(t, 1024)
	// Out-of-range write.
	_, err := client.WriteAt([]byte("past the end"), 1020)
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("want remote error, got %v", err)
	}
	// Out-of-range read.
	size, err := client.Size()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadAt(make([]byte, 1), size+10); err == nil {
		t.Fatal("out-of-range remote read accepted")
	}
	// The connection survives store-level errors.
	if _, err := client.Size(); err != nil {
		t.Fatalf("connection broken after remote error: %v", err)
	}
}

// TestConcurrentClients: eight clients on one server, half of them
// writing their own region and half reading at random; every writer's
// last bytes are in the store afterwards.
func TestConcurrentClients(t *testing.T) {
	const clients, region = 8, 512
	store := dev.NewMemStore(clients * region)
	srv := NewStoreServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	last := make([][]byte, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := Dial(addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 64)
			for i := 0; i < 40; i++ {
				if seed%2 == 0 {
					rng.Read(buf)
					if _, err := c.WriteAt(buf, seed*region+rng.Int63n(region-64)); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.ReadAt(buf, rng.Int63n(store.Size()-64)); err != nil {
					errs <- err
					return
				}
			}
			if seed%2 == 0 {
				// The writer's region as it left it.
				last[seed] = make([]byte, region)
				if _, err := c.ReadAt(last[seed], seed*region); err != nil {
					errs <- err
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Close() // orders the handlers' store accesses before ours
	for g := 0; g < clients; g += 2 {
		got, _ := store.Slice(int64(g)*region, region)
		if !bytes.Equal(got, last[g]) {
			t.Fatalf("client %d's region differs from what it read back", g)
		}
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := NewStoreServer(dev.NewMemStore(1024))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Size(); err == nil {
		t.Fatal("request succeeded after server close")
	}
	// Closing twice is safe.
	srv.Close()
}

func TestOversizedReadRejected(t *testing.T) {
	_, client := startServer(t, 1024)
	if _, err := client.ReadAt(make([]byte, MaxIOSize+1), 0); err == nil {
		t.Fatal("read past the end of the store accepted")
	}
}

// startStoreServer serves a MemStore.
func startStoreServer(t *testing.T, size int64) (string, *dev.MemStore) {
	t.Helper()
	store := dev.NewMemStore(size)
	srv := NewStoreServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), store
}

func TestReadV(t *testing.T) {
	addr, store := startStoreServer(t, 4096)
	content := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(content)
	if _, err := store.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Out-of-order, overlapping, mixed-size gather in one round trip.
	vecs := []Vec{{Off: 1024, Len: 512}, {Off: 0, Len: 64}, {Off: 1000, Len: 100}, {Off: 4095, Len: 1}}
	dst := make([][]byte, len(vecs))
	for i, v := range vecs {
		dst[i] = make([]byte, v.Len)
	}
	if err := client.ReadV(vecs, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if !bytes.Equal(dst[i], content[v.Off:v.Off+int64(v.Len)]) {
			t.Fatalf("range %d mismatch", i)
		}
	}
	// Empty gather is a no-op.
	if err := client.ReadV(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Mis-sized destination buffer is rejected client-side.
	if err := client.ReadV([]Vec{{Off: 0, Len: 8}}, [][]byte{make([]byte, 4)}); err == nil {
		t.Fatal("mis-sized gather buffer accepted")
	}
	// Out-of-range gather comes back as a remote error; the connection
	// stays synchronized and usable.
	err = client.ReadV([]Vec{{Off: 1 << 20, Len: 16}}, [][]byte{make([]byte, 16)})
	if !IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	if err := client.ReadV(vecs[:1], dst[:1]); err != nil {
		t.Fatalf("connection unusable after remote gather error: %v", err)
	}
	// More ranges than one frame may carry are served in two frames (a
	// server still refuses such a frame: wire_test.go's "oversized count").
	big := make([]Vec, MaxVecCount+1)
	bufs := make([][]byte, len(big))
	for i := range big {
		big[i] = Vec{Off: int64(i % len(content)), Len: 1}
		bufs[i] = make([]byte, 1)
	}
	if err := client.ReadV(big, bufs); err != nil {
		t.Fatalf("gather of %d ranges: %v", len(big), err)
	}
	for i, v := range big {
		if bufs[i][0] != content[v.Off] {
			t.Fatalf("range %d of the two-frame gather mismatch", i)
		}
	}
}

// TestReadVAgainstDevice gathers what plain writes put on the served
// disk.
func TestReadVAgainstDevice(t *testing.T) {
	store, client := startServer(t, 1152)
	payload := make([]byte, store.Size())
	rand.New(rand.NewSource(8)).Read(payload)
	if _, err := client.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	vecs := []Vec{{Off: 64, Len: 64}, {Off: 0, Len: 32}}
	dst := [][]byte{make([]byte, 64), make([]byte, 32)}
	if err := client.ReadV(vecs, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[0], payload[64:128]) || !bytes.Equal(dst[1], payload[:32]) {
		t.Fatal("gather mismatch")
	}
}

func TestClientOpTimeout(t *testing.T) {
	// A server that accepts and then never answers.
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
			defer conn.Close()
			io.Copy(io.Discard, conn) // swallow requests, reply with nothing
		}
	}()
	client, err := DialConfig(ln.Addr().String(), Config{DialTimeout: time.Second, OpTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Size(); err == nil {
		t.Fatal("hung server answered?")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire: blocked %v", elapsed)
	}
	// The timed-out exchange desynchronized the stream: poisoned.
	if client.Broken() == nil {
		t.Fatal("timed-out connection not poisoned")
	}
	if _, err := client.Size(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("want poisoned-connection error, got %v", err)
	}
}

func TestClientPoisonedAfterMidFrameError(t *testing.T) {
	// A server that sends a truncated response: ok status + length, then
	// hangs up mid-payload.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 13)
		io.ReadFull(conn, buf)
		conn.Write([]byte{0, 0, 0, 0, 64}) // promises 64 bytes
		conn.Write(make([]byte, 10))       // delivers 10
		conn.Close()
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ReadAt(make([]byte, 64), 0); err == nil {
		t.Fatal("truncated response accepted")
	}
	if client.Broken() == nil {
		t.Fatal("mid-frame failure did not poison the connection")
	}
	if _, err := client.Size(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("want poisoned-connection error, got %v", err)
	}
}

func TestRemoteErrorDoesNotPoison(t *testing.T) {
	_, client := startServer(t, 1024)
	_, err := client.ReadAt(make([]byte, 16), 1020)
	if !IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	if client.Broken() != nil {
		t.Fatal("remote error poisoned the connection")
	}
	if _, err := client.Size(); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
}

func TestReadRateThrottle(t *testing.T) {
	store := dev.NewMemStore(1 << 20)
	srv := NewStoreServer(store, WithReadRate(1e6)) // 1 MB/s
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.ReadAt(make([]byte, 200_000), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("200 KB at 1 MB/s finished in %v; throttle inert", elapsed)
	}
	// Writes are not throttled (the limit models read bandwidth).
	start = time.Now()
	if _, err := client.WriteAt(make([]byte, 200_000), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("write throttled: %v", elapsed)
	}
}
