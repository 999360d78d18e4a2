package cluster

import (
	"context"
	"sync"
	"time"

	"shiftedmirror/internal/obs"
)

// The rebuild QoS controller closes the loop the paper leaves implicit:
// one-access reconstruction makes the rebuild *fast*, but a fast rebuild
// is still a bulk reader competing with user traffic on the very
// backends that serve degraded reads. The controller throttles the
// rebuild (and the online scrubber) with a token bucket denominated in
// stripes, and adapts the bucket's rate by feedback from the user-read
// fetch-latency histogram: when the windowed p99 exceeds the configured
// SLO the rate halves (multiplicative decrease), when there is headroom
// it climbs back (additive-ish increase), and it never drops below the
// configured floor — reconstruction always makes forward progress, so
// the MTTR bound survives even a saturating workload.
//
// Token accounting uses a debt model: acquire(cost) debits the bucket
// immediately (tokens may go negative) and then sleeps the debt off in
// interval-sized naps, re-reading the feedback on every wake. Debiting
// first keeps the call sites trivial — RebuildDisk acquires right
// before each slice, before the slice publishes its write fence, so a
// throttled rebuild parks with no user write waiting on it. The feedback
// is honest because a user read holds no lock a slice takes: its
// latency is its round trips, and fetchLat sees all of them.

// qosMinSamples is the fewest fetch observations a feedback window needs
// before its p99 is trusted; quieter windows count as idle and the rate
// recovers toward the cap.
const qosMinSamples = 8

type qosController struct {
	slo      time.Duration
	min, max float64 // rate clamp, stripes/second
	interval time.Duration
	src      *obs.Histogram // user fetch latency (rebuild excluded)
	st       *volumeStats

	mu       sync.Mutex
	rate     float64 // current bucket refill rate, stripes/second
	tokens   float64 // may go negative: outstanding debt
	lastFill time.Time
	lastEval time.Time
	lastSnap obs.HistSnapshot // histogram state at the last evaluation
}

// newQoSController builds the controller from a defaulted Config. The
// rate slow-starts at the floor: the first feedback window arrives a
// full interval after the rebuild begins, and starting at the cap would
// let that window run unthrottled into live traffic — the exact
// transient the controller exists to prevent. An idle volume loses
// almost nothing: quiet windows double the rate, so the cap is reached
// within a handful of intervals.
func newQoSController(cfg Config, st *volumeStats) *qosController {
	q := &qosController{
		slo:      cfg.RebuildQoSSLO,
		min:      cfg.RebuildQoSMinRate,
		max:      cfg.RebuildQoSMaxRate,
		interval: cfg.RebuildQoSInterval,
		src:      st.fetchLat,
		st:       st,
		rate:     cfg.RebuildQoSMinRate,
	}
	now := time.Now()
	q.lastFill = now
	q.lastEval = now
	q.lastSnap = q.src.Snapshot()
	st.qosRate.Set(int64(q.rate))
	st.qosHeadroom.Set(q.slo.Microseconds())
	return q
}

// acquire debits cost stripes from the bucket and blocks until the debt
// is amortized at the current rate (or ctx is done). A slice calls it
// before opening its window, with no lock held: the whole point is that
// user I/O proceeds while the rebuild is parked here.
func (q *qosController) acquire(ctx context.Context, cost int) error {
	if q == nil || cost <= 0 {
		return ctx.Err()
	}
	q.mu.Lock()
	now := time.Now()
	q.refillLocked(now)
	q.evaluateLocked(now)
	q.tokens -= float64(cost)
	deficit := -q.tokens
	rate := q.rate
	q.mu.Unlock()

	var waited time.Duration
	defer func() {
		if waited > 0 {
			q.st.qosWaitNanos.Add(int64(waited))
		}
	}()
	for deficit > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Wake at least once per interval so a mid-wait rate change (SLO
		// recovered, workload went idle) shortens the sleep.
		nap := max(min(time.Duration(deficit/rate*float64(time.Second)), q.interval), time.Millisecond)
		timer := time.NewTimer(nap)
		select {
		case <-ctx.Done():
			timer.Stop()
			waited += nap
			return ctx.Err()
		case <-timer.C:
			waited += nap
		}
		q.mu.Lock()
		now := time.Now()
		q.refillLocked(now)
		q.evaluateLocked(now)
		deficit = -q.tokens
		rate = q.rate
		q.mu.Unlock()
	}
	return nil
}

// refillLocked credits tokens for the time since the last fill, capping
// the balance at one second's worth of burst so idle time cannot bank
// an unbounded debt-free run once load returns.
func (q *qosController) refillLocked(now time.Time) {
	if dt := now.Sub(q.lastFill).Seconds(); dt > 0 {
		q.tokens += dt * q.rate
	}
	q.lastFill = now
	q.tokens = min(q.tokens, q.rate) // the burst: one second's worth
}

// evaluateLocked runs the feedback step at most once per interval: it
// diffs the fetch histogram against the previous snapshot to get this
// window's user-read latency distribution, compares the windowed p99
// against the SLO, and adjusts the rate — halve on violation (counted
// as a throttle event), raise by a quarter with at least 20% headroom,
// and recover quickly toward the cap when the window is too quiet to
// trust (no user traffic means nothing to protect).
func (q *qosController) evaluateLocked(now time.Time) {
	if now.Sub(q.lastEval) < q.interval {
		return
	}
	q.lastEval = now
	snap := q.src.Snapshot()
	window := deltaSnapshot(q.lastSnap, snap)
	q.lastSnap = snap
	if window.Count < qosMinSamples {
		q.setRateLocked(q.rate * 2)
		q.st.qosHeadroom.Set(q.slo.Microseconds())
		return
	}
	p99 := window.Quantile(0.99)
	q.st.qosHeadroom.Set((q.slo - p99).Microseconds())
	switch {
	case p99 > q.slo:
		q.setRateLocked(q.rate / 2)
		q.st.qosThrottles.Inc()
		// Violations also forfeit any banked burst: the next slice
		// should feel the new rate immediately, not after spending the
		// old one's credit.
		if q.tokens > 0 {
			q.tokens = 0
		}
	case p99 <= q.slo*4/5:
		q.setRateLocked(q.rate*1.25 + 1)
		q.st.qosBoosts.Inc()
	}
}

func (q *qosController) setRateLocked(r float64) {
	q.rate = min(max(r, q.min), q.max)
	q.st.qosRate.Set(int64(q.rate))
}

// snapshotRate returns the current rate for Stats().
func (q *qosController) snapshotRate() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rate
}

// deltaSnapshot subtracts an earlier histogram snapshot from a later
// one, yielding the distribution of just the observations in between.
// If the histogram was Reset between the two (counts went backwards),
// the later snapshot is returned whole.
func deltaSnapshot(prev, cur obs.HistSnapshot) obs.HistSnapshot {
	if cur.Count < prev.Count || len(prev.Counts) != len(cur.Counts) {
		return cur
	}
	d := obs.HistSnapshot{
		Bounds: cur.Bounds,
		Counts: make([]uint64, len(cur.Counts)),
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
	}
	for i := range cur.Counts {
		if cur.Counts[i] >= prev.Counts[i] {
			d.Counts[i] = cur.Counts[i] - prev.Counts[i]
		}
	}
	return d
}
