package cluster

import (
	"context"
	"sync"
	"time"

	"shiftedmirror/internal/blockserver"
)

// Hedged reads: the tail-at-scale defense the paper's placement makes
// cheap. Every element has a replica (P1), and under the shifted
// arrangement one disk's replicas spread across all n mirror backends
// (P2) — so racing a slow backend against the replica locations fans
// the backup load out over the whole cluster instead of doubling one
// twin's traffic.
//
// A hedge is failover started early: the backup is the share's spans,
// each one copy further down its failover order, served by the same
// fetchSpans every other read goes through. It fires only after an
// adaptive delay (a quantile of recent per-backend fetch latency). Until
// then the primary exchange runs on the calling goroutine and a hedged
// share has paid for a cancellable context, a place on the volume's
// hedge clock and the channel a fired hedge answers on — no goroutine,
// no scratch buffer, no second plan; those are taken only when it fires.

// readBatch serves one backend's share of a fetch round through the
// exchange x (already loaded with the share's ranges), hedging it when
// hedging is on, the fetch is a user read, and every span has another
// copy to race against.
func (v *Volume) readBatch(ctx context.Context, slot int, pl *opPlan, batch []int32, x *vecOp, kind fetchKind) error {
	if v.cfg.HedgeEnabled && kind == fetchUser && v.hedgeable(pl, batch) {
		return v.hedgedRead(ctx, slot, pl, batch, x)
	}
	return v.readVecs(ctx, pl.st.slots[slot].be, x, kind)
}

// readVecs is the shared wire call: one ReadV through the backend.
// Successful round trips feed the fetch-latency histogram the
// adaptive hedge delay and the rebuild QoS controller quantile;
// failures and cancelled losers are excluded so they cannot drag the
// trigger around, and so are rebuild gathers — a throttled rebuild
// round trip is not user-visible latency, and letting it into the
// histogram would feed the QoS controller its own throttling as
// apparent SLO pressure.
func (v *Volume) readVecs(ctx context.Context, b backend, x *vecOp, kind fetchKind) error {
	start := time.Now()
	err := b.doCtx(ctx, x)
	if err == nil {
		if kind != fetchRebuild {
			v.stats.fetchLat.Observe(time.Since(start))
		}
	} else if blockserver.IsCRC(err) {
		// The backend's bytes failed their checksum at this client; the
		// fetch engine fails the spans over to a replica like any other
		// error, but the corruption itself is worth its own counter.
		v.stats.crcReadErrors.Inc()
	}
	return err
}

// hedgeable reports whether, in the state the round was routed against,
// every span of the share has a next live copy on a backend that is not
// marked dead. One span degraded to its last copy disables the hedge for
// the whole share: there is nothing to race it against, and a
// half-hedged share would still tail on it.
func (v *Volume) hedgeable(pl *opPlan, batch []int32) bool {
	for _, si := range batch {
		s := &pl.spans[si]
		locs := v.locations(s.stripe, s.disk, s.row)
		next := pl.st.nextLive(s.stripe, locs, s.src+1)
		if next == len(locs) || pl.st.slots[locs[next].slot].be.isDead() {
			return false
		}
	}
	return true
}

// hedgeDelay is the adaptive trigger: the configured quantile of recent
// successful fetch latencies, clamped to [HedgeMinDelay, HedgeMaxDelay].
// The clamp matters on both ends — a straggler polluting the histogram
// must not push the trigger out to its own latency, and a uniformly
// fast history must not hedge on noise. With too few samples the delay
// is HedgeMaxDelay (hedge only as a last resort until calibrated).
func (v *Volume) hedgeDelay() time.Duration {
	snap := v.stats.fetchLat.Snapshot()
	if snap.Count < uint64(v.cfg.HedgeMinSamples) {
		return v.cfg.HedgeMaxDelay
	}
	d := snap.Quantile(v.cfg.HedgePercentile)
	if d < v.cfg.HedgeMinDelay {
		d = v.cfg.HedgeMinDelay
	}
	if d > v.cfg.HedgeMaxDelay {
		d = v.cfg.HedgeMaxDelay
	}
	return d
}

// backupFetch is what a fired hedge timer hands back: the backup's bytes
// in the share's span order, and the fetch's verdict.
type backupFetch struct {
	scratch []byte
	err     error
}

// hedgedRead runs the share's primary exchange on the calling goroutine
// and, if it outlasts the adaptive delay, races it against fetchBackup
// on the goroutine the hedge clock fires it on. Whichever lands first
// serves the share and cancels the other; a side that fails leaves the
// race to the one still running. The primary reads into the spans' real
// buffers and the backup into scratch, copied over only once the
// primary has returned, so no buffer is written by two transfers at
// once. A hedge that fired is always waited for: its goroutine reads the
// caller's plan, and no goroutine may outlive the read.
func (v *Volume) hedgedRead(ctx context.Context, slot int, pl *opPlan, batch []int32, x *vecOp) error {
	race, stop := context.WithCancel(ctx)
	defer stop()
	fired := make(chan backupFetch, 1)
	h := &hedge{fire: func() {
		v.stats.hedgeAttempts.Inc()
		scratch, err := v.fetchBackup(race, pl, batch)
		if err == nil {
			stop() // the backup landed first: the primary is the loser
		}
		fired <- backupFetch{scratch, err}
	}}
	v.hedges.add(h, v.hedgeDelay())
	err := v.readVecs(race, pl.st.slots[slot].be, x, fetchUser)
	if v.hedges.withdraw(h) {
		return err // the primary beat its delay
	}
	if err == nil {
		stop() // the primary recovered first: the backup is the loser
		<-fired
		v.stats.hedgeLosses.Inc()
		v.stats.hedgeCancels.Inc()
		return nil
	}
	// The primary was stopped mid-flight if the backup had already won
	// when it returned.
	stopped := race.Err() != nil
	backup := <-fired
	if backup.err != nil {
		return err // neither landed: failover handles the primary's error
	}
	n := 0
	for _, si := range batch {
		n += copy(pl.spans[si].buf, backup.scratch[n:])
	}
	v.stats.hedgeWins.Inc()
	if stopped {
		v.stats.hedgeCancels.Inc()
	}
	return nil
}

// fetchBackup is the hedge itself: the share's next fetch round, started
// before the current one has failed. It copies the share's spans into a
// plan of its own — each routed from the copy after the one the primary
// is reading, with buffers cut from one scratch allocation — and runs
// the fetch engine on it as an internal fetch: never hedged in turn,
// timed into the fetch-latency histogram, counted as neither degraded
// nor rebuild reads, and failed over like any other.
func (v *Volume) fetchBackup(ctx context.Context, pl *opPlan, batch []int32) ([]byte, error) {
	size := 0
	for _, si := range batch {
		size += len(pl.spans[si].buf)
	}
	scratch := make([]byte, size)
	backup := v.getPlan()
	defer v.putPlan(backup)
	n := 0
	for _, si := range batch {
		s := pl.spans[si]
		s.src, s.buf = s.src+1, scratch[n:n+len(s.buf)]
		n += len(s.buf)
		backup.spans = append(backup.spans, s)
	}
	return scratch, v.fetchSpans(ctx, backup, fetchInternal)
}

// hedgeClock is the volume's one hedge timer, shared by every hedged
// read in flight. A runtime timer armed earlier than the scheduler's
// next wake-up makes the runtime interrupt its network poller, a
// syscall and a thread wake-up: a timer per read paid that on every
// loopback read, about as much as the read itself. The clock keeps one
// timer armed at the earliest due hedge, so a read whose hedge is due
// later — every read at a steady delay — only joins the list, and the
// poller is woken at most once per due time rather than once per read.
type hedgeClock struct {
	mu     sync.Mutex
	timer  *time.Timer // runs sweep; nil until the first hedge
	armed  time.Time   // when timer fires; zero while it is not armed
	hedges []*hedge    // hedges not yet fired or withdrawn
}

// hedge is one hedged read's place on the clock.
type hedge struct {
	due  time.Time
	i    int    // index in hedgeClock.hedges; -1 once fired or withdrawn
	fire func() // starts the backup; run on a goroutine of its own
}

// add puts h on the clock, due after delay.
func (c *hedgeClock) add(h *hedge, delay time.Duration) {
	h.due = time.Now().Add(delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	h.i = len(c.hedges)
	c.hedges = append(c.hedges, h)
	if !c.armed.IsZero() && !h.due.Before(c.armed) {
		return // the timer fires first anyway
	}
	c.armed = h.due
	if c.timer == nil {
		c.timer = time.AfterFunc(delay, c.sweep)
	} else {
		c.timer.Reset(delay)
	}
}

// withdraw takes h off the clock and reports whether it was still
// pending; false means it fired, and its backup is running or done.
func (c *hedgeClock) withdraw(h *hedge) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.i < 0 {
		return false
	}
	c.remove(h)
	return true
}

// remove takes h off the pending list. Call with mu held.
func (c *hedgeClock) remove(h *hedge) {
	last := c.hedges[len(c.hedges)-1]
	c.hedges[h.i], last.i = last, h.i
	c.hedges[len(c.hedges)-1] = nil
	c.hedges = c.hedges[:len(c.hedges)-1]
	h.i = -1
}

// sweep is the timer's callback: it fires every hedge now due, each on
// a goroutine of its own, and re-arms the timer for the earliest one
// left. A sweep with nothing due — the hedge it was armed for was
// withdrawn — only re-arms.
func (c *hedgeClock) sweep() {
	var due []*hedge
	c.mu.Lock()
	now := time.Now()
	var next time.Time
	for i := 0; i < len(c.hedges); {
		h := c.hedges[i]
		if h.due.After(now) {
			if next.IsZero() || h.due.Before(next) {
				next = h.due
			}
			i++
			continue
		}
		due = append(due, h)
		c.remove(h) // moves the last pending hedge to i
	}
	c.armed = next
	if !next.IsZero() {
		c.timer.Reset(next.Sub(now))
	}
	c.mu.Unlock()
	for _, h := range due {
		go h.fire()
	}
}
