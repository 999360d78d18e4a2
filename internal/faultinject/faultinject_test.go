package faultinject

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

func TestPassthroughAndCounts(t *testing.T) {
	inner := dev.NewMemStore(256)
	s := Wrap(inner, Config{})
	payload := []byte("through the injection layer")
	if _, err := s.WriteAt(payload, 16); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := s.ReadAt(got, 16); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
	if s.Size() != inner.Size() {
		t.Fatalf("size %d, want %d", s.Size(), inner.Size())
	}
	c := s.Counts()
	if c.Reads != 1 || c.Writes != 1 || c.Stalls != 0 || c.Errors != 0 {
		t.Fatalf("counts %+v", c)
	}
}

// TestErrorCadence: error injection is counter-based, so the k-th,
// 2k-th, ... reads fail on every run regardless of timing.
func TestErrorCadence(t *testing.T) {
	s := Wrap(dev.NewMemStore(64), Config{ErrEvery: 3})
	buf := make([]byte, 8)
	for i := 1; i <= 9; i++ {
		_, err := s.ReadAt(buf, 0)
		if (i%3 == 0) != (err != nil) {
			t.Fatalf("read %d: err=%v, want failure exactly on every 3rd", i, err)
		}
	}
	if c := s.Counts(); c.Reads != 9 || c.Errors != 3 {
		t.Fatalf("counts %+v, want 9 reads, 3 errors", c)
	}
}

func TestStallCadence(t *testing.T) {
	const stall = 20 * time.Millisecond
	s := Wrap(dev.NewMemStore(64), Config{StallEvery: 2, StallFor: stall})
	buf := make([]byte, 8)
	start := time.Now()
	for i := 0; i < 6; i++ {
		if _, err := s.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counts(); c.Stalls != 3 {
		t.Fatalf("counts %+v, want 3 stalls in 6 reads", c)
	}
	if elapsed := time.Since(start); elapsed < 3*stall {
		t.Fatalf("6 reads with 3 stalls took %v, want >= %v", elapsed, 3*stall)
	}
}

func TestReadDelayFloor(t *testing.T) {
	const delay = 15 * time.Millisecond
	s := Wrap(dev.NewMemStore(64), Config{ReadDelay: delay})
	buf := make([]byte, 8)
	start := time.Now()
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delayed read took %v, want >= %v", elapsed, delay)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("delay=5ms,jitter=2ms,stall=100ms,stallevery=8,errevery=4,seed=7,writedelay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, ReadDelay: 5 * time.Millisecond, ReadJitter: 2 * time.Millisecond,
		StallEvery: 8, StallFor: 100 * time.Millisecond,
		WriteDelay: time.Millisecond, ErrEvery: 4,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec("  "); err != nil || cfg != (Config{}) {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{
		"bogus=1",          // unknown key
		"delay",            // no value
		"delay=soon",       // bad duration
		"stallevery=2",     // stallevery without stall
		"stallevery=x",     // bad int
		"delay=5ms,oops=1", // unknown key after valid one
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted, want error", bad)
		}
	}
}

// TestGateHoldsAndReleases: ops of a held kind park at the gate and get
// the release verdict — through to the store, or turned away untouched;
// ops of the other kind, and everything after the release, pass.
func TestGateHoldsAndReleases(t *testing.T) {
	inner := dev.NewMemStore(64)
	g := NewGate(&OrderedStore{Store: inner})
	if _, err := g.WriteAt([]byte{1}, 0); err != nil {
		t.Fatalf("open gate write: %v", err)
	}
	for _, verdict := range []error{nil, errors.New("dropped")} {
		g.HoldWrites()
		wrote := make(chan error, 1)
		go func() {
			_, err := g.WriteAt([]byte{2}, 0)
			wrote <- err
		}()
		for g.Waiting() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		buf := make([]byte, 1)
		if _, err := g.ReadAt(buf, 0); err != nil || buf[0] != 1 {
			t.Fatalf("read past a write hold: %v, byte %d", err, buf[0])
		}
		g.Release(verdict)
		if err := <-wrote; err != verdict {
			t.Fatalf("held write released with %v returned %v", verdict, err)
		}
		if _, err := g.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		want := byte(2) // let through
		if verdict != nil {
			want = 1 // turned away: the store keeps what it had
		}
		if buf[0] != want {
			t.Fatalf("held write released with %v left byte %d in the store, want %d", verdict, buf[0], want)
		}
		if _, err := g.WriteAt([]byte{1}, 0); err != nil { // reset for the next round
			t.Fatal(err)
		}
	}
}
