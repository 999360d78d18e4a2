package blockserver

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// A synchronous connection keeps its OpTimeout deadline across
// exchanges and re-arms it only when it would cut an exchange short of
// 7/8 × OpTimeout, or when a context deadline asks for less. These
// tests hold the restated bound and the context deadline to what a
// deadline armed per exchange guaranteed.

// answerThenStall serves OpSize on one connection: it answers the first
// answers requests and swallows the rest without a word.
func answerThenStall(t *testing.T, answers int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		op := make([]byte, 1)
		for i := 0; i < answers; i++ {
			if _, err := io.ReadFull(conn, op); err != nil {
				return
			}
			if _, err := conn.Write(binary.BigEndian.AppendUint64([]byte{statusOK}, 4096)); err != nil {
				return
			}
		}
		io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String()
}

// TestStalledExchangeBoundedByOpTimeout: a server that answers some
// exchanges and then goes silent fails the stalled exchange within
// [7/8, 1] × OpTimeout of that exchange's start (plus scheduling
// slack), whether the deadline an earlier exchange armed was kept for
// it (a short idle gap) or re-armed (a gap past OpTimeout/8).
func TestStalledExchangeBoundedByOpTimeout(t *testing.T) {
	const opTimeout = 400 * time.Millisecond
	const slack = 250 * time.Millisecond
	for _, tc := range []struct {
		name string
		gap  time.Duration
		kept bool
	}{
		{"deadline kept", 10 * time.Millisecond, true},
		{"deadline re-armed", opTimeout / 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, err := DialConfig(answerThenStall(t, 3), Config{OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			for i := 0; i < 3; i++ {
				if _, err := client.Size(); err != nil {
					t.Fatal(err)
				}
			}
			armed := client.deadline
			time.Sleep(tc.gap)
			start := time.Now()
			if _, err := client.Size(); err == nil {
				t.Fatal("the silent server answered")
			}
			took := time.Since(start)
			if took < opTimeout-opTimeout/8 || took > opTimeout+slack {
				t.Fatalf("the stalled exchange failed after %v, want within [%v, %v]", took, opTimeout-opTimeout/8, opTimeout+slack)
			}
			if kept := client.deadline.Equal(armed); kept != tc.kept {
				t.Fatalf("deadline kept across the %v gap: %v, want %v", tc.gap, kept, tc.kept)
			}
			if client.Broken() == nil {
				t.Fatal("the timed-out connection was not poisoned")
			}
		})
	}
}

// TestMovedDeadlineRearmed: when the cancel callback moved the deadline
// into the past and the exchange completed anyway, endOp clears the
// deadline, and the next exchange must arm a fresh one rather than
// trust the value armed before the move — else it runs with no deadline
// at all. The race is played by hand: an exchange is opened, its
// context's callback fires, and the exchange closes cleanly.
func TestMovedDeadlineRearmed(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	client, err := DialConfig(answerThenStall(t, 0), Config{OpTimeout: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := client.beginOp(ctx); err != nil {
		t.Fatal(err)
	}
	client.interrupt(ctx.Done()) // the callback, racing the exchange's end
	if err := client.endOp(ctx, nil); err != nil {
		t.Fatal(err)
	}
	failed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		client.Size()
		failed <- time.Since(start)
	}()
	select {
	case took := <-failed:
		if took < opTimeout-opTimeout/8 {
			t.Fatalf("the stalled exchange failed after %v, within 7/8 of OpTimeout %v", took, opTimeout)
		}
	case <-time.After(10 * opTimeout):
		client.Close()
		t.Fatal("after a moved deadline the next exchange ran with none")
	}
}

// TestStaleContextDeadlineSparesNextExchange: an exchange under a short
// context deadline arms it on the connection; the next exchange, under
// no deadline and started after the short one passed, must not be cut
// off by it — with an OpTimeout (re-armed) and without one (cleared).
func TestStaleContextDeadlineSparesNextExchange(t *testing.T) {
	for _, opTimeout := range []time.Duration{0, 2 * time.Second} {
		addr, _ := startStoreServer(t, 4096)
		client, err := DialConfig(addr, Config{OpTimeout: opTimeout})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if _, err := client.ReadAtCtx(short, buf, 0); err != nil {
			t.Fatalf("OpTimeout %v: exchange under the short deadline: %v", opTimeout, err)
		}
		cancel()
		d, _ := short.Deadline()
		if !client.deadline.Equal(d) {
			t.Fatalf("OpTimeout %v: armed %v, want the context's %v", opTimeout, client.deadline, d)
		}
		time.Sleep(time.Until(d) + 20*time.Millisecond)
		for i := 0; i < 3; i++ {
			if _, err := client.ReadAtCtx(context.Background(), buf, 0); err != nil {
				t.Fatalf("OpTimeout %v: exchange %d after the short deadline passed: %v", opTimeout, i, err)
			}
		}
		if opTimeout == 0 && !client.deadline.IsZero() {
			t.Fatalf("no OpTimeout, yet %v stays armed", client.deadline)
		}
		client.Close()
	}
}
