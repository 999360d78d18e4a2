package faultinject

import (
	"sync"
	"sync/atomic"

	"shiftedmirror/internal/blockserver"
)

// Gate is a store whose reads or writes a test can hold at the door:
// ops that arrive while their kind is held park until Release, which
// either lets them through or turns them away with an error — a stalled
// disk that comes back, or one that drops what it was asked to do. Ops
// of a kind not held, and all ops once released, pass straight through.
// It is how a test gets inside an operation — mid-gather, mid-fan-out —
// at a point of its choosing rather than by timing.
type Gate struct {
	blockserver.Store

	mu      sync.Mutex
	cur     *hold // nil while the gate is open
	waiting atomic.Int64
}

// hold is one closing of the gate. err is written before done is closed.
type hold struct {
	reads, writes bool
	done          chan struct{}
	err           error
}

// NewGate wraps inner with an open gate.
func NewGate(inner blockserver.Store) *Gate { return &Gate{Store: inner} }

// HoldReads parks every read from now until Release.
func (g *Gate) HoldReads() { g.hold(true, false) }

// HoldWrites parks every write from now until Release.
func (g *Gate) HoldWrites() { g.hold(false, true) }

func (g *Gate) hold(reads, writes bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur == nil {
		g.cur = &hold{done: make(chan struct{})}
	}
	g.cur.reads, g.cur.writes = g.cur.reads || reads, g.cur.writes || writes
}

// Release opens the gate. Parked ops proceed to the inner store when err
// is nil and fail with err, untouched by the store, otherwise.
func (g *Gate) Release(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur != nil {
		g.cur.err = err
		close(g.cur.done)
		g.cur = nil
	}
}

// Waiting reports how many ops are parked right now.
func (g *Gate) Waiting() int { return int(g.waiting.Load()) }

// pass parks the caller while its kind is held and returns the verdict
// it was released with.
func (g *Gate) pass(write bool) error {
	g.mu.Lock()
	h := g.cur
	held := h != nil && (write && h.writes || !write && h.reads)
	g.mu.Unlock()
	if !held {
		return nil
	}
	g.waiting.Add(1)
	<-h.done
	g.waiting.Add(-1)
	return h.err
}

func (g *Gate) ReadAt(p []byte, off int64) (int, error) {
	if err := g.pass(false); err != nil {
		return 0, err
	}
	return g.Store.ReadAt(p, off)
}

func (g *Gate) WriteAt(p []byte, off int64) (int, error) {
	if err := g.pass(true); err != nil {
		return 0, err
	}
	return g.Store.WriteAt(p, off)
}
