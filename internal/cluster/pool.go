package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/obs"
)

// poolStats are one backend's service counters. The Volume owns one
// per disk slot (see diskStats) so the numbers survive ReplaceBackend:
// a disk's history does not reset because its machine was swapped.
type poolStats struct {
	requests  obs.Counter // operations submitted
	retries   obs.Counter // extra attempts after transport failures
	dials     obs.Counter // connections opened
	errors    obs.Counter // operations that ultimately failed
	poisoned  obs.Counter // connections poisoned and closed by transport errors
	deaths    obs.Counter // alive→dead state transitions
	revivals  obs.Counter // dead→alive state transitions (successful probes)
	deadGauge obs.Gauge   // 1 while marked dead, else 0
}

// pool is a fixed-size connection pool to one backend with a
// marked-dead/probe-recovery state machine. Transport failures close the
// offending connection and are retried on a fresh one with exponential
// backoff; after DeadAfter consecutive failures the backend is marked
// dead and callers fail fast until a background probe dial revives it.
//
// Two wiring modes share the state machine:
//
//   - synchronous (Config.Pipeline false): connections are the
//     concurrency units — an op checks out a connection for its full
//     round trip, bounded by the PoolSize slot semaphore.
//   - pipelined (Config.Pipeline true): PoolSize multiplexed
//     connections carry many tagged in-flight ops each (bounded by the
//     per-connection window), picked round-robin; a transport tear
//     retires the one connection — counted once, however many in-flight
//     ops it failed — and the next op redials the slot.
type pool struct {
	addr string
	cfg  Config

	slots chan struct{} // semaphore: cap = cfg.PoolSize (synchronous mode)
	rr    atomic.Uint32 // round-robin cursor over pipes (pipelined mode)

	// closeCtx is cancelled by close() so an in-flight dial — typically
	// a recovery probe against an unreachable backend, which would
	// otherwise sit out its full DialTimeout — aborts immediately and no
	// probing goroutine outlives shutdown.
	closeCtx    context.Context
	cancelClose context.CancelFunc

	mu         sync.Mutex
	idle       []*blockserver.Client // synchronous mode
	pipes      []*blockserver.Client // pipelined mode; nil slots redial on demand
	dialing    []chan struct{}       // pipelined mode: per-slot single-flight dial latch
	closed     bool
	dead       bool
	probing    bool // a background probe dial is in flight
	failures   int  // consecutive transport failures
	probeLevel int  // consecutive failed probes while dead
	nextProbe  time.Time

	stats     *poolStats // owned by the Volume; survives pool replacement
	pipeStats *blockserver.PipeStats
}

func newPool(addr string, cfg Config, stats *poolStats, pipeStats *blockserver.PipeStats) *pool {
	if stats == nil {
		stats = &poolStats{}
	}
	p := &pool{addr: addr, cfg: cfg, stats: stats, pipeStats: pipeStats,
		slots: make(chan struct{}, cfg.PoolSize)}
	p.closeCtx, p.cancelClose = context.WithCancel(context.Background())
	for i := 0; i < cfg.PoolSize; i++ {
		p.slots <- struct{}{}
	}
	if cfg.Pipeline {
		p.pipes = make([]*blockserver.Client, cfg.PoolSize)
		p.dialing = make([]chan struct{}, cfg.PoolSize)
	}
	return p
}

// errPoolClosed is what an op gets from a pool that has been closed: the
// volume was closed, or ReplaceBackend swapped the pool out while the op
// still held the state that named it.
var errPoolClosed = errors.New("cluster: connection pool is closed")

// close tears down idle and multiplexed connections and aborts any dial
// in flight; synchronous in-flight operations finish on their own
// connections, pipelined in-flight ops fail with a closed error.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	idle, pipes := p.idle, p.pipes
	p.idle = nil
	for i := range p.pipes {
		p.pipes[i] = nil
	}
	p.mu.Unlock()
	p.cancelClose()
	for _, c := range idle {
		c.Close()
	}
	for _, c := range pipes {
		if c != nil {
			c.Close()
		}
	}
}

// isDead reports the fail-fast state: marked dead with either a probe
// already in flight or the probe window still closed. Foreground ops
// never dial a dead backend themselves — recovery is the background
// probe's job (see maybeProbe), so no caller burns DialTimeout against
// a machine that is likely still down.
func (p *pool) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead && (p.probing || time.Now().Before(p.nextProbe))
}

// maybeProbe launches the background recovery probe when the backend is
// dead and its probe window has opened. The probe dial holds no slot
// token and no caller's context: foreground ops keep failing fast (and
// keep their connection slots) while the probe sits out DialTimeout
// against an unreachable peer. The window is pushed forward before the
// dial so repeated callers cannot schedule a probe herd.
func (p *pool) maybeProbe() {
	p.mu.Lock()
	if p.closed || !p.dead || p.probing || time.Now().Before(p.nextProbe) {
		p.mu.Unlock()
		return
	}
	p.probing = true
	backoff := p.cfg.ProbeEvery << p.probeLevel
	if backoff > p.cfg.MaxProbe {
		backoff = p.cfg.MaxProbe
	}
	p.nextProbe = time.Now().Add(backoff)
	if p.probeLevel < 30 {
		p.probeLevel++
	}
	p.mu.Unlock()
	go p.probe()
}

// probe is the background recovery dial. On success the backend is
// revived and the fresh connection is handed to the pool (idle set or
// an empty pipe slot) so the dial is not wasted; on failure the state
// machine is left as maybeProbe set it (window advanced, level raised).
func (p *pool) probe() {
	c, err := p.dial(p.closeCtx)
	p.mu.Lock()
	p.probing = false
	closed := p.closed
	p.mu.Unlock()
	if err != nil {
		return
	}
	if closed {
		c.Close()
		return
	}
	p.noteSuccess()
	if p.cfg.Pipeline {
		p.mu.Lock()
		for i := range p.pipes {
			if p.pipes[i] == nil {
				p.pipes[i] = c
				c = nil
				break
			}
		}
		p.mu.Unlock()
		if c != nil {
			c.Close()
		}
		return
	}
	p.release(c)
}

// address is the backend's dial address.
func (p *pool) address() string { return p.addr }

// lease is one connection an op may run on, and how it goes back: a
// checked-out synchronous connection (slot < 0, holding a token of the
// slots semaphore) or a share of the multiplexed connection in a pipes
// slot.
type lease struct {
	c    *blockserver.Client
	slot int
}

// checkout acquires a connection for one attempt. Only this step differs
// between the wiring modes: synchronous ops wait for a slot token and
// check a whole connection out; pipelined ops pick a multiplexed
// connection round-robin and queue behind its in-flight window.
func (p *pool) checkout(ctx context.Context) (lease, error) {
	if p.cfg.Pipeline {
		slot, c, err := p.acquirePipe(ctx)
		return lease{c, slot}, err
	}
	select {
	case <-p.slots:
	case <-ctx.Done():
		return lease{}, ctx.Err()
	}
	c, err := p.acquire(ctx)
	if err != nil {
		p.slots <- struct{}{}
	}
	return lease{c, -1}, err
}

// settle ends a lease. A connection that is still in step — the op was
// answered, or a pipelined op abandoned its tag on cancellation — goes
// back to the pool. A broken one is closed and retired; retired reports
// whether this caller was the one to do it. On a multiplexed connection
// only the first observer is: a tear fails every op in the window at
// once, and counting it once per op would catapult the backend into the
// dead state on a single flaky socket.
func (p *pool) settle(l lease, broken bool) (retired bool) {
	if l.slot < 0 {
		if broken {
			l.c.Close()
		} else {
			p.release(l.c)
		}
		p.slots <- struct{}{}
		retired = broken
	} else if broken {
		p.mu.Lock()
		if retired = p.pipes[l.slot] == l.c; retired {
			p.pipes[l.slot] = nil
		}
		p.mu.Unlock()
		if retired {
			l.c.Close()
		}
	}
	if retired {
		p.stats.poisoned.Inc()
	}
	return retired
}

// doCtx runs op on a pooled connection, with cancellation threaded
// through every stage: lease acquisition, retry backoff, the dial, and
// the wire exchange itself (the client interrupts in-flight frames — see
// blockserver.Client.do). Remote (application) errors are returned as-is
// and keep the connection pooled. Transport failures retire the
// connection and are retried on a fresh one with exponential backoff. A
// cancelled op is the caller's doing, not the backend's: it is never
// retried and never feeds the dead-marking state machine, so hedge
// losers — which are cancelled constantly by design — cannot talk a
// healthy backend into the dead state. (On a multiplexed connection
// cancellation only abandons the op's tag; a synchronous connection is
// poisoned by it and retired.)
func (p *pool) doCtx(ctx context.Context, op wireOp) error {
	p.stats.requests.Inc()
	if err := ctx.Err(); err != nil {
		p.stats.errors.Inc()
		return err
	}
	p.maybeProbe()
	if p.isDead() {
		p.stats.errors.Add(1)
		return fmt.Errorf("%w: %s", ErrBackendDead, p.addr)
	}
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if attempt > 0 {
			p.stats.retries.Inc()
			if err := sleepCtx(ctx, p.cfg.RetryBackoff<<(attempt-1)); err != nil {
				p.stats.errors.Inc()
				return err
			}
			if p.isDead() {
				break
			}
		}
		l, err := p.checkout(ctx)
		if err != nil {
			// A cancelled caller or a retired pool says nothing about the
			// backend: no retry, and no step toward the dead state — the
			// slot's counters outlive this pool, and its successor must not
			// inherit a death it never died.
			if ctx.Err() != nil || errors.Is(err, errPoolClosed) {
				p.stats.errors.Inc()
				return err
			}
			lastErr = err
			p.noteFailure()
			continue
		}
		err = op.run(ctx, l.c)
		// The wire client says what an error means for its connection
		// (blockserver.Client.Broken). An op that failed on a connection
		// still in step was answered there — a store error, a checksum
		// verdict, a feature the server lacks — or refused before it
		// touched the wire (a request the caller built wrong): another
		// connection would say the same, so no retry, no dead-marking.
		broken := err != nil && l.c.Broken() != nil
		retired := p.settle(l, broken)
		if err != nil && ctx.Err() != nil {
			p.stats.errors.Inc()
			return err
		}
		if !broken {
			p.noteSuccess()
			if err != nil {
				p.stats.errors.Inc()
			}
			return err
		}
		if retired {
			p.noteFailure()
		}
		lastErr = err
	}
	p.stats.errors.Inc()
	if p.isDead() {
		return fmt.Errorf("%w: %s (last error: %v)", ErrBackendDead, p.addr, lastErr)
	}
	return fmt.Errorf("cluster: backend %s: %w", p.addr, lastErr)
}

// acquirePipe returns the round-robin slot's multiplexed connection,
// dialing it on first use or after a retirement. Dials are single-flight
// per slot: concurrent ops landing on an empty slot wait for the one
// dial in progress and share its connection instead of racing their own
// — a multiplexed connection exists precisely so that N ops do not cost
// N sockets.
func (p *pool) acquirePipe(ctx context.Context) (int, *blockserver.Client, error) {
	slot := int(p.rr.Add(1)) % len(p.pipes)
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return 0, nil, fmt.Errorf("%w: %s", errPoolClosed, p.addr)
		}
		if c := p.pipes[slot]; c != nil {
			if c.Broken() == nil {
				p.mu.Unlock()
				return slot, c, nil
			}
			p.pipes[slot] = nil
			p.mu.Unlock()
			c.Close()
			continue
		}
		if ch := p.dialing[slot]; ch != nil {
			p.mu.Unlock()
			select {
			case <-ch:
				continue // the dial finished; re-read the slot
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-p.closeCtx.Done():
				return 0, nil, fmt.Errorf("%w: %s", errPoolClosed, p.addr)
			}
		}
		ch := make(chan struct{})
		p.dialing[slot] = ch
		p.mu.Unlock()
		c, err := p.dial(ctx)
		p.mu.Lock()
		p.dialing[slot] = nil
		close(ch)
		if p.closed {
			p.mu.Unlock()
			if c != nil {
				c.Close()
			}
			return 0, nil, fmt.Errorf("%w: %s", errPoolClosed, p.addr)
		}
		if err != nil {
			p.mu.Unlock()
			return 0, nil, err
		}
		if cur := p.pipes[slot]; cur != nil {
			// A probe donated a connection while we dialed; keep it.
			p.mu.Unlock()
			c.Close()
			return slot, cur, nil
		}
		p.pipes[slot] = c
		p.mu.Unlock()
		return slot, c, nil
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire pops an idle connection or dials a new one (synchronous
// mode). Probing a dead backend is not this path's job anymore: the
// background probe owns recovery, so acquire only runs against a
// believed-healthy peer.
func (p *pool) acquire(ctx context.Context) (*blockserver.Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", errPoolClosed, p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return p.dial(ctx)
}

// dial opens one negotiated connection. The dial obeys both the
// caller's context and pool shutdown: close() cancelling closeCtx
// aborts a dial that would otherwise hang on an unreachable backend
// until DialTimeout.
func (p *pool) dial(ctx context.Context) (*blockserver.Client, error) {
	p.stats.dials.Inc()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(p.closeCtx, cancel)
	defer stop()
	var features byte
	if p.cfg.WireCRC {
		features |= blockserver.FeatureCRC
	}
	if p.cfg.Pipeline {
		features |= blockserver.FeaturePipeline
	}
	return blockserver.DialContext(dctx, p.addr, blockserver.Config{
		DialTimeout: p.cfg.DialTimeout,
		OpTimeout:   p.cfg.OpTimeout,
		Features:    features,
		PipeWindow:  p.cfg.PipelineWindow,
		PipeStats:   p.pipeStats,
	})
}

// release returns a healthy connection to the idle set.
func (p *pool) release(c *blockserver.Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || c.Broken() != nil {
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

func (p *pool) noteSuccess() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = 0
	p.probeLevel = 0
	if p.dead {
		p.dead = false
		p.stats.revivals.Inc()
		p.stats.deadGauge.Set(0)
	}
}

func (p *pool) noteFailure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	if p.failures >= p.cfg.DeadAfter && !p.dead {
		p.dead = true
		p.probeLevel = 0
		p.nextProbe = time.Now().Add(p.cfg.ProbeEvery)
		p.stats.deaths.Inc()
		p.stats.deadGauge.Set(1)
	}
}
