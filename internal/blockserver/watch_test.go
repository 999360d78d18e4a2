package blockserver

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// A synchronous connection registers one cancel callback, on the context
// of the exchange it is serving, and keeps it until an exchange arrives
// under another context or the client closes. These tests hold that
// registration to what a per-exchange one guaranteed.

// TestIdleCancelSparesOtherContexts mixes, on one connection, exchanges
// under a long-lived context A — two in a row, so the connection keeps
// its registration — with exchanges under per-call contexts B, and
// cancels each at a random point relative to the other's exchanges: A
// while the connection is idle or serving a B, B just as the next A
// exchange starts. A callback firing then has nothing of its own to
// interrupt, and must leave the connection alone: every exchange
// succeeds and the connection is never poisoned.
func TestIdleCancelSparesOtherContexts(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	vecs, bufs := []Vec{{Off: 0, Len: 64}}, [][]byte{make([]byte, 64)}
	exchange := func(i int, under string, ctx context.Context) {
		t.Helper()
		if err := client.ReadVCtx(ctx, vecs, bufs); err != nil {
			t.Fatalf("iteration %d: exchange under %s failed: %v (connection broken: %v)", i, under, err, client.Broken())
		}
	}
	a, cancelA := context.WithCancel(context.Background())
	for i := 0; i < 2000; i++ {
		exchange(i, "A", a)
		exchange(i, "A", a)
		b, cancelB := context.WithCancel(context.Background())
		if i%5 == 4 {
			// A's life ends while the connection idles or serves B.
			go cancelA()
			exchange(i, "B", b)
			a, cancelA = context.WithCancel(context.Background())
		} else {
			exchange(i, "B", b)
		}
		go cancelB() // racing the next exchange under A
	}
	cancelA()
	exchange(-1, "Background", context.Background())
}

// TestWatchedCallbackActsOnItsOwnExchange, on reads paced to take
// 200 ms: the callback of a cancelled context the connection no longer
// watches, arriving while another context's exchange is in flight — a
// cancel that raced the switch of registration — leaves that exchange
// alone. And a
// context whose callback was registered by an earlier exchange still
// interrupts a later one in flight under it: promptly, with the
// context's error, poisoning the connection.
func TestWatchedCallbackActsOnItsOwnExchange(t *testing.T) {
	store := dev.NewMemStore(1 << 20)
	srv := NewStoreServer(store, WithReadRate(1e6))
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
	a, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	write := func() {
		t.Helper()
		for i := 0; i < 3; i++ { // registers on the first, keeps it after
			if _, err := client.WriteAtCtx(a, make([]byte, 64), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	slowRead := func(ctx context.Context) (chan error, time.Time) {
		read := make(chan error, 1)
		go func() {
			_, err := client.ReadAtCtx(ctx, make([]byte, 200_000), 0)
			read <- err
		}()
		time.Sleep(30 * time.Millisecond) // the read is in flight
		return read, time.Now()
	}

	write()
	c, cancelC := context.WithCancel(context.Background())
	if _, err := client.WriteAtCtx(c, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	cancelC() // C's callback runs with nothing in flight
	b, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	read, _ := slowRead(b)
	client.interrupt(c.Done()) // C's callback again, as if it had run late
	if err := <-read; err != nil {
		t.Fatalf("a callback of a context no longer watched failed another's exchange: %v", err)
	}

	write()
	read, start := slowRead(a)
	cancelA()
	select {
	case err := <-read:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted read = %v, want context.Canceled", err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Fatalf("the cancel took %v to interrupt the read", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancel did not interrupt the read in flight")
	}
	if client.Broken() == nil {
		t.Fatal("an exchange interrupted mid-frame left the connection usable")
	}
}

// TestClosedClientNotPinnedByContext: the callback a connection keeps
// registered refers to the client, and the context it is registered on
// may outlive the client by far — a process-wide context does. Close
// deregisters it, so a closed client is collected while that context
// lives on.
func TestClosedClientNotPinnedByContext(t *testing.T) {
	addr, _ := startStoreServer(t, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collected := make(chan struct{})
	func() {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second exchange keeps the registration
			if err := client.ReadVCtx(ctx, []Vec{{Off: 0, Len: 64}}, [][]byte{make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
		}
		if client.watched != ctx.Done() {
			t.Fatal("two exchanges in a row kept no callback on their context")
		}
		client.Close()
		runtime.SetFinalizer(client, func(*Client) { close(collected) })
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(ctx)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a closed client is still reachable from a context it once watched")
		}
	}
}
