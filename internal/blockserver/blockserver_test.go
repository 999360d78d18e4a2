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
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// startServer spins up a served device and a connected client, both torn
// down with the test.
func startServer(t *testing.T, arch *raid.Mirror, stripes int) (*dev.Device, *Client) {
	t.Helper()
	device := dev.New(arch, 64, stripes)
	srv := NewServer(device)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return device, client
}

func TestRemoteReadWrite(t *testing.T) {
	device, client := startServer(t, raid.NewMirrorWithParity(layout.NewShifted(3)), 2)
	size, err := client.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != device.Size() {
		t.Fatalf("remote size %d, local %d", size, device.Size())
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
	if err := client.Scrub(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteFailureManagement(t *testing.T) {
	device, client := startServer(t, raid.NewMirrorWithParity(layout.NewShifted(3)), 2)
	payload := make([]byte, device.Size())
	rand.New(rand.NewSource(2)).Read(payload)
	if _, err := client.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	id := raid.DiskID{Role: raid.RoleData, Index: 1}
	if err := client.FailDisk(id); err != nil {
		t.Fatal(err)
	}
	// Degraded reads over the wire.
	got := make([]byte, device.Size())
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote degraded read mismatch")
	}
	h, failed, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.DegradedReads == 0 {
		t.Fatal("health did not report degraded reads")
	}
	if len(failed) != 1 || failed[0] != id {
		t.Fatalf("failed list %v", failed)
	}
	if err := client.Rebuild(id); err != nil {
		t.Fatal(err)
	}
	if err := client.Scrub(); err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := client.Health(); len(failed) != 0 {
		t.Fatalf("still failed after rebuild: %v", failed)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, client := startServer(t, raid.NewMirror(layout.NewShifted(3)), 1)
	// Unknown disk.
	err := client.FailDisk(raid.DiskID{Role: raid.RoleData, Index: 42})
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
	// The connection survives device-level errors.
	if err := client.Scrub(); err != nil {
		t.Fatalf("connection broken after remote error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	device, _ := startServer(t, raid.NewMirrorWithParity(layout.NewShifted(4)), 4)
	srv := NewServer(device)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
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
				off := rng.Int63n(device.Size() - 64)
				if seed%2 == 0 {
					rng.Read(buf)
					if _, err := c.WriteAt(buf, off); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.ReadAt(buf, off); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := device.Scrub(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	device := dev.New(raid.NewMirror(layout.NewShifted(2)), 64, 1)
	srv := NewServer(device)
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
	_, client := startServer(t, raid.NewMirror(layout.NewShifted(2)), 1)
	if _, err := client.ReadAt(make([]byte, MaxIOSize+1), 0); err == nil {
		t.Fatal("read past the end of the device accepted")
	}
}

// startStoreServer serves a bare MemStore (no device management).
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

func TestReadVAgainstDevice(t *testing.T) {
	device, client := startServer(t, raid.NewMirror(layout.NewShifted(3)), 2)
	payload := make([]byte, device.Size())
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
		t.Fatal("device gather mismatch")
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
	_, client := startServer(t, raid.NewMirror(layout.NewShifted(3)), 1)
	err := client.FailDisk(raid.DiskID{Role: raid.RoleData, Index: 42})
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

func TestStoreServerRejectsManagement(t *testing.T) {
	addr, _ := startStoreServer(t, 1024)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	size, err := client.Size()
	if err != nil || size != 1024 {
		t.Fatalf("store size: %d, %v", size, err)
	}
	if err := client.Scrub(); !IsRemote(err) {
		t.Fatalf("store server answered Scrub: %v", err)
	}
	if err := client.FailDisk(raid.DiskID{}); !IsRemote(err) {
		t.Fatalf("store server answered FailDisk: %v", err)
	}
	// Raw I/O works and the connection survived the rejections.
	if _, err := client.WriteAt([]byte("raw disk"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "raw disk" {
		t.Fatalf("store round trip: %q", got)
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
