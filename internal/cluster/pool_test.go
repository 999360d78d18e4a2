package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
)

// do runs fn on one of the pool's connections, through doCtx with no
// deadline — the pool tests' way of handing it a wire-client call.
func (p *pool) do(fn func(*blockserver.Client) error) error {
	return p.doCtx(context.Background(), clientFunc(func(_ context.Context, c peer) error {
		return fn(c.(*blockserver.Client))
	}))
}

func startStoreServer(t *testing.T, size int64) (*blockserver.Server, string, *dev.MemStore) {
	t.Helper()
	store := dev.NewMemStore(size)
	srv := blockserver.NewStoreServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String(), store
}

func TestPoolReusesConnections(t *testing.T) {
	_, addr, _ := startStoreServer(t, 1024)
	p := newPool(addr, fastConfig(64, 2), nil, nil)
	defer p.close()
	buf := make([]byte, 16)
	for i := 0; i < 10; i++ {
		if err := p.do(func(c *blockserver.Client) error {
			_, err := c.ReadAt(buf, 0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if dials := p.stats.dials.Load(); dials != 1 {
		t.Fatalf("10 sequential ops used %d dials, want 1", dials)
	}
	if reqs := p.stats.requests.Load(); reqs != 10 {
		t.Fatalf("requests counter %d, want 10", reqs)
	}
}

func TestPoolRemoteErrorKeepsConnection(t *testing.T) {
	_, addr, _ := startStoreServer(t, 64)
	p := newPool(addr, fastConfig(64, 2), nil, nil)
	defer p.close()
	buf := make([]byte, 16)
	// Out-of-range read: a remote error, not a transport failure.
	err := p.do(func(c *blockserver.Client) error {
		_, err := c.ReadAt(buf, 1<<20)
		return err
	})
	if !blockserver.IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	if p.isDead() {
		t.Fatal("remote error marked the backend dead")
	}
	// Connection still pooled and healthy.
	if err := p.do(func(c *blockserver.Client) error {
		_, err := c.ReadAt(buf, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if dials := p.stats.dials.Load(); dials != 1 {
		t.Fatalf("remote error forced a redial (%d dials)", dials)
	}
}

// TestPoolCallerBugReturnsAtOnce: an error the wire client raised before
// touching the wire — here a buffer that does not match its range — is
// not transport trouble. The connection is in step, so the pool must
// hand the error back at once: no backoff sleep, no retry, no step
// toward marking the backend dead; it is still an error, and counted.
func TestPoolCallerBugReturnsAtOnce(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "pipelined"}[pipelined]
		t.Run(name, func(t *testing.T) {
			_, addr, _ := startStoreServer(t, 1024)
			cfg := fastConfig(64, 2).withDefaults()
			cfg.Pipeline = pipelined
			cfg.Retries, cfg.RetryBackoff, cfg.DeadAfter = 3, 250*time.Millisecond, 1
			cfg.PoolSize = 1 // one connection, so a second dial is a redial
			p := newPool(addr, cfg, nil, nil)
			defer p.close()
			mismatched := func(c *blockserver.Client) error {
				return c.ReadV([]blockserver.Vec{{Off: 0, Len: 8}}, [][]byte{make([]byte, 4)})
			}
			start := time.Now()
			err := p.do(mismatched)
			elapsed := time.Since(start)
			if err == nil || blockserver.IsRemote(err) {
				t.Fatalf("mismatched-buffer ReadV through the pool: %v, want the client's own rejection", err)
			}
			if elapsed >= cfg.RetryBackoff {
				t.Fatalf("a caller's bug took %v: it slept a retry backoff (%v)", elapsed, cfg.RetryBackoff)
			}
			if n := p.stats.retries.Load(); n != 0 {
				t.Fatalf("a caller's bug was retried %d times", n)
			}
			if n := p.stats.errors.Load(); n != 1 {
				t.Fatalf("errors counter %d, want 1", n)
			}
			if p.isDead() || p.stats.poisoned.Load() != 0 {
				t.Fatal("a caller's bug cost the backend its connection or its standing")
			}
			// The connection went back to the pool and still serves.
			if err := p.do(func(c *blockserver.Client) error {
				_, err := c.ReadAt(make([]byte, 16), 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if dials := p.stats.dials.Load(); dials != 1 {
				t.Fatalf("a caller's bug forced a redial (%d dials)", dials)
			}
		})
	}
}

func TestPoolMarksDeadThenFailsFast(t *testing.T) {
	srv, addr, _ := startStoreServer(t, 1024)
	cfg := fastConfig(64, 2)
	cfg.ProbeEvery = time.Minute // keep the probe window shut
	p := newPool(addr, cfg, nil, nil)
	defer p.close()
	buf := make([]byte, 16)
	read := func() error {
		return p.do(func(c *blockserver.Client) error {
			_, err := c.ReadAt(buf, 0)
			return err
		})
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for i := 0; i < 4 && !p.isDead(); i++ {
		read() // expected to fail; drives the failure counter
	}
	if !p.isDead() {
		t.Fatal("backend not marked dead after repeated failures")
	}
	start := time.Now()
	err := read()
	if !errors.Is(err, ErrBackendDead) {
		t.Fatalf("want ErrBackendDead, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("dead backend not failing fast: %v", elapsed)
	}
}

// TestPoolConcurrentKillRestart hammers one pool from many goroutines
// while the backend dies and comes back — the -race exercise for the
// slot semaphore, idle stack, pipelined slot array, and state machine.
// Both wiring modes run the same script.
func TestPoolConcurrentKillRestart(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "pipelined"}[pipeline]
		t.Run(name, func(t *testing.T) {
			testPoolKillRestart(t, pipeline)
		})
	}
}

func testPoolKillRestart(t *testing.T, pipeline bool) {
	// Offset discipline: TCP acks order one connection handler's store
	// writes before the next connection's, but the race detector cannot
	// see happens-before through an in-process socket. So writers burn
	// through disjoint arenas of never-reused slots and readers touch a
	// region nothing ever writes — no offset is accessed from two server
	// connections without a detector-visible order.
	const workers = 12
	const writers = workers / 2
	const wslots = 2048 // never-reused 32-byte write slots per writer
	size := int64((writers*wslots+workers)*32) + 32
	readBase := int64(writers*wslots) * 32
	srv, addr, store := startStoreServer(t, size)
	cfg := fastConfig(64, 2)
	cfg.Pipeline = pipeline
	p := newPool(addr, cfg, nil, nil)
	defer p.close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 32)
			if g%2 == 0 { // writer: one fresh slot per op
				w := g / 2
				for i := 0; i < wslots; i++ {
					select {
					case <-stop:
						return
					default:
					}
					off := int64(w*wslots+i) * 32
					p.do(func(c *blockserver.Client) error {
						_, err := c.WriteAt(buf, off)
						return err
					}) // errors expected during the outage
				}
			}
			for { // reader (and writers whose arena ran dry)
				select {
				case <-stop:
					return
				default:
				}
				p.do(func(c *blockserver.Client) error {
					_, err := c.ReadAt(buf, readBase+int64(g)*32)
					return err
				})
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	srv2, err := restartServer(store, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// The pool must recover: one op must eventually succeed again.
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 32)
	for {
		err := p.do(func(c *blockserver.Client) error {
			_, err := c.ReadAt(buf, readBase+int64(workers)*32)
			return err
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("pool never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if p.isDead() {
		t.Fatal("pool still marked dead after recovery")
	}
}

// TestPoolPipelinedMultiplexes pins the pipelined pool's concurrency
// model: many concurrent ops share PoolSize multiplexed connections, so
// the dial count is bounded by PoolSize no matter how many ops ran.
func TestPoolPipelinedMultiplexes(t *testing.T) {
	_, addr, _ := startStoreServer(t, 8192)
	cfg := fastConfig(64, 2)
	cfg.Pipeline = true
	p := newPool(addr, cfg, nil, nil)
	defer p.close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 32)
			for i := 0; i < 4; i++ {
				// One never-reused offset per op: both halves ride the
				// same connection, and no offset recurs across
				// connections (see testPoolKillRestart on why the race
				// detector needs that from an in-process workload).
				off := int64(g*4+i) * 32
				if err := p.do(func(c *blockserver.Client) error {
					if !c.HasPipeline() {
						t.Error("pool dialed a non-pipelined connection")
					}
					if _, err := c.WriteAt(buf, off); err != nil {
						return err
					}
					_, err := c.ReadAt(buf, off)
					return err
				}); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials := p.stats.dials.Load(); dials > int64(cfg.PoolSize) {
		t.Fatalf("%d dials for %d multiplexed slots", dials, cfg.PoolSize)
	}
	if reqs := p.stats.requests.Load(); reqs != 16*4 {
		t.Fatalf("requests counter %d, want %d", reqs, 16*4)
	}
}

// TestPoolPipelinedRemoteErrorKeepsPipe mirrors the synchronous-mode
// guarantee on the multiplexed path: a remote verdict is served on a
// healthy stream and must not retire the connection or feed the
// dead-marking counter.
func TestPoolPipelinedRemoteErrorKeepsPipe(t *testing.T) {
	_, addr, _ := startStoreServer(t, 64)
	cfg := fastConfig(64, 2)
	cfg.Pipeline = true
	cfg.PoolSize = 1 // one slot, so the dial count is a strict pin
	p := newPool(addr, cfg, nil, nil)
	defer p.close()
	buf := make([]byte, 16)
	err := p.do(func(c *blockserver.Client) error {
		_, err := c.ReadAt(buf, 1<<20)
		return err
	})
	if !blockserver.IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}
	if p.isDead() {
		t.Fatal("remote error marked the backend dead")
	}
	if poisoned := p.stats.poisoned.Load(); poisoned != 0 {
		t.Fatalf("remote error retired the pipe (%d poisoned)", poisoned)
	}
	if err := p.do(func(c *blockserver.Client) error {
		_, err := c.ReadAt(buf, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if dials := p.stats.dials.Load(); dials != 1 {
		t.Fatalf("remote error forced a redial (%d dials)", dials)
	}
}

// TestPoolProbeHoldsNoSlot pins the probe-accounting fix: the recovery
// probe of a dead backend dials in the background without consuming a
// caller's connection slot, so foreground ops keep failing fast even
// while the probe sits out DialTimeout against a peer that accepts but
// never answers. Before the fix the probe ran inline on the caller's
// slot: with PoolSize=1 every window reopening froze an op for the full
// DialTimeout.
func TestPoolProbeHoldsNoSlot(t *testing.T) {
	srv, addr, _ := startStoreServer(t, 1024)
	cfg := fastConfig(64, 2)
	cfg.PoolSize = 1
	// WireCRC makes every dial run the OpFeatures exchange, so a dial
	// against the silent listener below hangs until the deadline instead
	// of succeeding on the bare TCP connect. (The store server has no
	// CRC sidecar; it refuses the feature, which dials fine.)
	cfg.WireCRC = true
	cfg.DialTimeout = 2 * time.Second
	cfg.ProbeEvery = 20 * time.Millisecond
	cfg.MaxProbe = 20 * time.Millisecond
	p := newPool(addr, cfg, nil, nil)
	defer p.close()
	buf := make([]byte, 16)
	read := func() error {
		return p.do(func(c *blockserver.Client) error {
			_, err := c.ReadAt(buf, 0)
			return err
		})
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for i := 0; i < 4 && !p.isDead(); i++ {
		read()
	}
	if !p.isDead() {
		t.Fatal("backend not marked dead after repeated failures")
	}
	// Replace the backend with a listener that accepts but never speaks:
	// probe dials now hang in negotiation until DialTimeout.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()
	// Give a probe time to launch and get stuck, then require every
	// foreground op to fail fast while it hangs.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := read(); !errors.Is(err, ErrBackendDead) {
			t.Fatalf("want ErrBackendDead while probing, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
			t.Fatalf("foreground op blocked %v behind the probe dial", elapsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolBackgroundProbeRevives closes the loop: after the backend
// comes back, the background probe alone revives the pool — callers see
// fail-fast errors turn into successes without ever paying a dial
// themselves. Both wiring modes.
func TestPoolBackgroundProbeRevives(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "pipelined"}[pipeline]
		t.Run(name, func(t *testing.T) {
			srv, addr, store := startStoreServer(t, 1024)
			cfg := fastConfig(64, 2)
			cfg.Pipeline = pipeline
			p := newPool(addr, cfg, nil, nil)
			defer p.close()
			buf := make([]byte, 16)
			read := func() error {
				return p.do(func(c *blockserver.Client) error {
					_, err := c.ReadAt(buf, 0)
					return err
				})
			}
			if err := read(); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			for i := 0; i < 4 && !p.isDead(); i++ {
				read()
			}
			if !p.isDead() {
				t.Fatal("backend not marked dead")
			}
			srv2, err := restartServer(store, addr)
			if err != nil {
				t.Skipf("could not rebind %s: %v", addr, err)
			}
			defer srv2.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := read(); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("probe never revived the pool")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if p.stats.revivals.Load() == 0 {
				t.Fatal("revival not counted")
			}
		})
	}
}
