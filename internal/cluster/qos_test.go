package cluster

import (
	"context"
	"testing"
	"time"

	"shiftedmirror/internal/obs"
)

func testQoSController(cfg Config) (*qosController, *volumeStats) {
	cfg = cfg.withDefaults()
	st := &volumeStats{}
	st.init(0)
	return newQoSController(cfg, st), st
}

// TestQoSNilControllerIsFree pins the disabled path: a nil controller's
// acquire is a no-op, so volumes without WithRebuildQoS rebuild exactly
// as before.
func TestQoSNilControllerIsFree(t *testing.T) {
	var q *qosController
	if err := q.acquire(context.Background(), 1000); err != nil {
		t.Fatalf("nil acquire = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.acquire(ctx, 1); err != context.Canceled {
		t.Fatalf("nil acquire on cancelled ctx = %v, want Canceled", err)
	}
}

// TestQoSIdleRunsAtCap: with no user traffic the controller never
// throttles — quiet windows double the slow-start rate to the cap, so
// a string of big acquires completes in well under the naive
// floor-rate time.
func TestQoSIdleRunsAtCap(t *testing.T) {
	q, st := testQoSController(Config{RebuildQoSSLO: 5 * time.Millisecond})
	if got := q.snapshotRate(); got != 1 {
		t.Fatalf("initial rate = %v, want the slow-start floor 1", got)
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := q.acquire(context.Background(), 16); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle acquires took %v; the default cap should be effectively unthrottled", elapsed)
	}
	if got := st.qosThrottles.Load(); got != 0 {
		t.Fatalf("idle volume recorded %d throttle events", got)
	}
}

// TestQoSThrottlesOnSLOViolation drives the feedback loop by hand:
// enough slow user fetches in one window must halve the rate and count
// a throttle event, and the headroom gauge must go negative.
func TestQoSThrottlesOnSLOViolation(t *testing.T) {
	cfg := Config{
		RebuildQoSSLO:      2 * time.Millisecond,
		RebuildQoSInterval: time.Millisecond,
		RebuildQoSMinRate:  1,
		RebuildQoSMaxRate:  1000,
	}
	q, st := testQoSController(cfg)
	q.mu.Lock()
	q.setRateLocked(1000) // as if fully ramped after an idle stretch
	q.mu.Unlock()
	for i := 0; i < 100; i++ {
		st.fetchLat.Observe(50 * time.Millisecond) // way over the 2ms SLO
	}
	time.Sleep(2 * cfg.RebuildQoSInterval) // let the interval elapse
	q.mu.Lock()
	q.evaluateLocked(time.Now())
	rate := q.rate
	q.mu.Unlock()
	if rate != 500 {
		t.Fatalf("rate after violation = %v, want 500 (half the 1000 cap)", rate)
	}
	if got := st.qosThrottles.Load(); got != 1 {
		t.Fatalf("throttle events = %d, want 1", got)
	}
	if got := st.qosHeadroom.Load(); got >= 0 {
		t.Fatalf("headroom = %dus, want negative while violated", got)
	}
	if got := st.qosRate.Load(); got != 500 {
		t.Fatalf("rate gauge = %d, want 500", got)
	}
}

// TestQoSFloorHolds: sustained violations converge on the configured
// minimum, never below — the rebuild's forward-progress guarantee.
func TestQoSFloorHolds(t *testing.T) {
	cfg := Config{
		RebuildQoSSLO:      time.Millisecond,
		RebuildQoSInterval: time.Millisecond,
		RebuildQoSMinRate:  3,
		RebuildQoSMaxRate:  100,
	}
	q, st := testQoSController(cfg)
	now := time.Now()
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			st.fetchLat.Observe(time.Second)
		}
		now = now.Add(2 * cfg.RebuildQoSInterval)
		q.mu.Lock()
		q.evaluateLocked(now)
		q.mu.Unlock()
	}
	q.mu.Lock()
	rate := q.rate
	q.mu.Unlock()
	if rate != 3 {
		t.Fatalf("rate after sustained violations = %v, want the floor 3", rate)
	}
}

// TestQoSRecoversWithHeadroom: after being throttled, windows whose p99
// sits comfortably under the SLO raise the rate back toward the cap,
// and quiet windows (below the sample floor) recover even faster.
func TestQoSRecoversWithHeadroom(t *testing.T) {
	cfg := Config{
		RebuildQoSSLO:      10 * time.Millisecond,
		RebuildQoSInterval: time.Millisecond,
		RebuildQoSMinRate:  1,
		RebuildQoSMaxRate:  1000,
	}
	q, st := testQoSController(cfg)
	q.mu.Lock()
	q.setRateLocked(2) // as if deeply throttled
	q.mu.Unlock()
	now := time.Now()
	// Fast user fetches: well under the SLO.
	boosts := st.qosBoosts.Load()
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			st.fetchLat.Observe(100 * time.Microsecond)
		}
		now = now.Add(2 * cfg.RebuildQoSInterval)
		q.mu.Lock()
		q.evaluateLocked(now)
		q.mu.Unlock()
	}
	q.mu.Lock()
	rate := q.rate
	q.mu.Unlock()
	if rate != 1000 {
		t.Fatalf("rate after headroom rounds = %v, want back at the 1000 cap", rate)
	}
	if st.qosBoosts.Load() <= boosts {
		t.Fatal("no boost events recorded on recovery")
	}
	// Idle windows double the rate.
	q.mu.Lock()
	q.setRateLocked(2)
	now = now.Add(2 * cfg.RebuildQoSInterval)
	q.evaluateLocked(now)
	rate = q.rate
	q.mu.Unlock()
	if rate != 4 {
		t.Fatalf("rate after one idle window = %v, want 4 (doubled)", rate)
	}
}

// TestQoSAcquirePacesToRate pins the token bucket's arithmetic: at a
// pinned rate of 100 stripes/sec, acquiring 3×10 stripes back-to-back
// must take roughly 20/100ths of a second (the first acquire spends
// the banked burst; loose bounds — CI clocks are coarse).
func TestQoSAcquirePacesToRate(t *testing.T) {
	cfg := Config{
		RebuildQoSSLO:      time.Millisecond,
		RebuildQoSInterval: time.Hour, // feedback frozen: the rate stays put
		RebuildQoSMinRate:  100,
		RebuildQoSMaxRate:  100,
	}
	q, st := testQoSController(cfg)
	q.mu.Lock()
	q.tokens = 0 // drop the initial burst for a deterministic bound
	q.mu.Unlock()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := q.acquire(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("3×10 stripes at 100/s finished in %v; the bucket is not pacing", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("3×10 stripes at 100/s took %v; the bucket overslept", elapsed)
	}
	if st.qosWaitNanos.Load() == 0 {
		t.Fatal("wait accounting recorded nothing for a throttled acquire")
	}
}

// TestQoSAcquireCancel: a parked acquire returns promptly with the
// context's error.
func TestQoSAcquireCancel(t *testing.T) {
	cfg := Config{
		RebuildQoSSLO:      time.Millisecond,
		RebuildQoSInterval: 10 * time.Millisecond,
		RebuildQoSMinRate:  1,
		RebuildQoSMaxRate:  1, // 1 stripe/sec: a big acquire parks for ages
	}
	q, _ := testQoSController(cfg)
	q.mu.Lock()
	q.tokens = 0
	q.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.acquire(ctx, 1000) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("acquire = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
}

// TestDeltaSnapshot pins the windowing math the feedback loop reads:
// the diff of two snapshots is exactly the observations in between, and
// a Reset in between falls back to the later snapshot whole.
func TestDeltaSnapshot(t *testing.T) {
	h := obs.NewHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	prev := h.Snapshot()
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	d := deltaSnapshot(prev, h.Snapshot())
	if d.Count != 3 {
		t.Fatalf("window count = %d, want 3", d.Count)
	}
	if got := d.Quantile(0.99); got != 10*time.Millisecond {
		t.Fatalf("window p99 = %v, want 10ms (all three in the second bucket)", got)
	}
	if d.Counts[0] != 0 || d.Counts[1] != 3 {
		t.Fatalf("window buckets = %v, want [0 3 0]", d.Counts)
	}
	h.Reset()
	h.Observe(time.Millisecond)
	d = deltaSnapshot(prev, h.Snapshot())
	if d.Count != 1 {
		t.Fatalf("post-Reset window count = %d, want the full later snapshot (1)", d.Count)
	}
}
