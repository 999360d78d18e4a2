package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/workload"
)

// op is one user request against the volume's logical byte space.
type op struct {
	write bool
	off   int64
	n     int
}

// geometry answers "does this op address the lost disk" from the
// documented layout: logical bytes are dealt to stripe slots of stripeB
// bytes, a slot's group comes from the extent table, and within a stripe
// elements are row-major, so element i sits on data disk i mod n.
type geometry struct {
	slotGroup []int
	size      int64
}

func (g geometry) elemOnLost(e int64) bool {
	const perStripe = mirrorN * mirrorN
	return g.slotGroup[e/perStripe] == lostGroup && int(e%perStripe)%mirrorN == lostDisk.Index
}

func (g geometry) touchesLost(off int64, n int) bool {
	for e := off / elemBytes; e <= (off+int64(n)-1)/elemBytes; e++ {
		if g.elemOnLost(e) {
			return true
		}
	}
	return false
}

// lostElems lists the byte offsets of the lost disk's elements.
func (g geometry) lostElems() []int64 {
	var out []int64
	for e := int64(0); e < g.size/elemBytes; e++ {
		if g.elemOnLost(e) {
			out = append(out, e*elemBytes)
		}
	}
	return out
}

// stream is one closed-loop client's seeded op source.
type stream struct {
	c    clientSpec
	rng  *rand.Rand
	geo  geometry
	aim  []int64
	next int64 // sequential cursor, in ops
}

func newStream(c clientSpec, seed int64, geo geometry) *stream {
	s := &stream{c: c, rng: rand.New(rand.NewSource(seed)), geo: geo}
	if c.pattern == aimed {
		s.aim = geo.lostElems()
	}
	return s
}

func (s *stream) gen() op {
	n := int64(s.c.opBytes)
	switch s.c.pattern {
	case sequential:
		perPass := s.geo.size / n
		i := s.next
		s.next++
		return op{write: (i/perPass)%2 == 0, off: (i % perPass) * n, n: int(n)}
	case aimed:
		base := s.aim[s.rng.Intn(len(s.aim))]
		off := base + s.rng.Int63n(elemBytes/n)*n
		return op{write: s.rng.Float64() >= s.c.readFrac, off: off, n: int(n)}
	default:
		off := s.rng.Int63n(s.geo.size/n) * n
		return op{write: s.rng.Float64() >= s.c.readFrac, off: off, n: int(n)}
	}
}

// atBoundary reports whether the client may stop here without cutting
// its op mix: a sequential client stops only after whole write+read pass
// pairs, so every window holds the same share of each.
func (s *stream) atBoundary() bool {
	if s.c.pattern != sequential {
		return true
	}
	return s.next%(2*(s.geo.size/int64(s.c.opBytes))) == 0
}

// failedLatency is what a failed op records: slower than every success.
const failedLatency = time.Hour

// tally is what one load generator goroutine saw during one window.
type tally struct {
	reads, writes, degraded []time.Duration
	lags                    []time.Duration // open loop: issue time − due time
	bytes, ops, failed      int64
}

func (t *tally) reset() {
	t.reads, t.writes, t.degraded, t.lags = t.reads[:0], t.writes[:0], t.degraded[:0], t.lags[:0]
	t.bytes, t.ops, t.failed = 0, 0, 0
}

func mergeTallies(ts []*tally) *tally {
	var m tally
	for _, t := range ts {
		m.reads = append(m.reads, t.reads...)
		m.writes = append(m.writes, t.writes...)
		m.degraded = append(m.degraded, t.degraded...)
		m.lags = append(m.lags, t.lags...)
		m.bytes += t.bytes
		m.ops += t.ops
		m.failed += t.failed
	}
	return &m
}

// loadState is shared by the load generators of one window.
type loadState struct {
	ref  []byte
	geo  geometry
	stop atomic.Bool
	// rebuilding is true from Fail until RebuildDisk returns; a read that
	// addresses the lost disk while it is set is a degraded read.
	rebuilding atomic.Bool
	// onOp, when set, brackets every user op (the traced run's span hook).
	onOp func(o op, start, end time.Time)
}

// issue performs one op, stamps its latency from since (the op's own
// start when zero), then checks the bytes it returned.
func (ls *loadState) issue(ctx context.Context, vol workload.Target, o op, buf []byte, since time.Time, t *tally) {
	degraded := !o.write && ls.rebuilding.Load() && ls.geo.touchesLost(o.off, o.n)
	start := time.Now()
	if since.IsZero() {
		since = start
	}
	var err error
	if o.write {
		_, err = vol.WriteAtCtx(ctx, ls.ref[o.off:o.off+int64(o.n)], o.off)
	} else {
		_, err = vol.ReadAtCtx(ctx, buf[:o.n], o.off)
	}
	end := time.Now()
	lat := end.Sub(since)
	if ls.onOp != nil {
		ls.onOp(o, start, end)
	}
	ok := err == nil && (o.write || sameAsRef(buf[:o.n], ls.ref[o.off:o.off+int64(o.n)], o.off))
	t.ops++
	if !ok {
		t.failed++
		lat = failedLatency
	} else {
		t.bytes += int64(o.n)
	}
	switch {
	case o.write:
		t.writes = append(t.writes, lat)
	case degraded:
		t.degraded = append(t.degraded, lat)
	default:
		t.reads = append(t.reads, lat)
	}
}

// sameAsRef compares a read with the reference image: in full up to
// 64 KiB; above that the head, the tail and one seeded 4 KiB window.
func sameAsRef(got, want []byte, seed int64) bool {
	const full, win = 64 << 10, 4 << 10
	if len(got) <= full {
		return bytes.Equal(got, want)
	}
	mid := int(uint64(seed)*0x9E3779B97F4A7C15>>33) % (len(got) - win)
	return bytes.Equal(got[:win], want[:win]) &&
		bytes.Equal(got[len(got)-win:], want[len(want)-win:]) &&
		bytes.Equal(got[mid:mid+win], want[mid:mid+win])
}

// runClosed drives one closed-loop client until stop (and its stream's
// next boundary) or ctx ends.
func (ls *loadState) runClosed(ctx context.Context, vol workload.Target, s *stream, t *tally) {
	buf := make([]byte, s.c.opBytes)
	for ctx.Err() == nil {
		if ls.stop.Load() && s.atBoundary() {
			return
		}
		o := s.gen()
		ls.issue(ctx, vol, o, buf, time.Time{}, t)
	}
}

// runOpen is one open-loop worker: it takes the next op of the shared
// schedule, waits until the op is due, and times it from its due time,
// so a stall is charged to every op it delays. With all workers busy,
// due ops queue.
func (ls *loadState) runOpen(ctx context.Context, vol workload.Target, ops []workload.Op, next *atomic.Int64, start time.Time, t *tally) {
	var maxLen int
	for _, o := range ops {
		if o.Len > maxLen {
			maxLen = o.Len
		}
	}
	buf := make([]byte, maxLen)
	for ctx.Err() == nil && !ls.stop.Load() {
		i := next.Add(1) - 1
		if i >= int64(len(ops)) {
			return
		}
		w := ops[i]
		due := start.Add(time.Duration(w.Arrival * float64(time.Second)))
		waitUntil(due)
		t.lags = append(t.lags, time.Since(due))
		ls.issue(ctx, vol, op{write: w.Kind == workload.OpWrite, off: w.Off, n: w.Len}, buf, due, t)
	}
}

// waitUntil sleeps to shortly before due and yields the rest: a timer
// alone overshoots by a large part of the gap between arrivals.
func waitUntil(due time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(due); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// load is a workload's set of generators over one volume. Closed-loop
// streams keep their position across windows; open-loop windows draw a
// fresh seeded schedule each.
type load struct {
	sp      *spec
	seed    int64
	geo     geometry
	ref     []byte
	streams []*stream
	tallies []*tally
	windows int64
	genTime time.Duration // time spent generating open-loop schedules
}

func newLoad(sp *spec, seed int64, geo geometry, ref []byte) *load {
	l := &load{sp: sp, seed: seed, geo: geo, ref: ref}
	n := len(sp.clients)
	if sp.open != nil {
		n = sp.open.workers
	}
	for i := 0; i < n; i++ {
		if sp.open == nil {
			l.streams = append(l.streams, newStream(sp.clients[i], seed*1000003+int64(i), geo))
		}
		l.tallies = append(l.tallies, &tally{})
	}
	return l
}

// window runs the workload's traffic against vol and returns what the
// generators saw and how long the window lasted. With a nil body it is
// a plain window of dur: closed-loop clients run for dur, an open-loop
// schedule of dur runs out. With a body, traffic runs until the body
// returns; the body gets the shared state to flip the rebuilding flag.
func (l *load) window(ctx context.Context, vol workload.Target, dur time.Duration, body func(ls *loadState)) (*tally, time.Duration) {
	ls := &loadState{ref: l.ref, geo: l.geo}
	for _, t := range l.tallies {
		t.reset()
	}
	var sched []workload.Op
	if l.sp.open != nil {
		g0 := time.Now()
		count := int(l.sp.open.rate * dur.Seconds())
		if count < 1 {
			count = 1
		}
		l.windows++
		sched = workload.Ops(l.seed*1000003+l.windows, count, l.geo.size, l.sp.open.tenants)
		l.genTime += time.Since(g0)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for i, t := range l.tallies {
		wg.Add(1)
		go func(i int, t *tally) {
			defer wg.Done()
			if l.sp.open != nil {
				ls.runOpen(ctx, vol, sched, &next, start, t)
			} else {
				ls.runClosed(ctx, vol, l.streams[i], t)
			}
		}(i, t)
	}
	switch {
	case body != nil:
		body(ls)
		ls.stop.Store(true)
	case l.sp.open == nil:
		sleepCtx(ctx, dur)
		ls.stop.Store(true)
	}
	wg.Wait()
	return mergeTallies(l.tallies), time.Since(start)
}

// replaySingle issues count ops of the workload one at a time from a
// single caller (the traced run's shape: with one user op in flight,
// every server request and store call belongs to it). Closed-loop
// clients take turns; an open-loop schedule keeps its due times.
func (l *load) replaySingle(ctx context.Context, vol workload.Target, count int, onOp func(op, time.Time, time.Time)) (*tally, time.Duration) {
	ls := &loadState{ref: l.ref, geo: l.geo, onOp: onOp}
	t := l.tallies[0]
	t.reset()
	if l.sp.open != nil {
		g0 := time.Now()
		l.windows++
		sched := workload.Ops(l.seed*1000003+l.windows, count, l.geo.size, l.sp.open.tenants)
		l.genTime += time.Since(g0)
		var next atomic.Int64
		start := time.Now()
		ls.runOpen(ctx, vol, sched, &next, start, t)
		return mergeTallies(l.tallies[:1]), time.Since(start)
	}
	var maxOp int
	for _, c := range l.sp.clients {
		maxOp = max(maxOp, c.opBytes)
	}
	buf := make([]byte, maxOp)
	start := time.Now()
	for i := 0; i < count && ctx.Err() == nil; i++ {
		g0 := time.Now()
		o := l.streams[i%len(l.streams)].gen()
		l.genTime += time.Since(g0)
		ls.issue(ctx, vol, o, buf, time.Time{}, t)
	}
	return mergeTallies(l.tallies[:1]), time.Since(start)
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// streamHash fingerprints the op stream a (workload, seed) pair
// generates, independent of how many ops a timed window gets through.
func streamHash(sp *spec, seed int64, geo geometry) uint64 {
	h := fnv.New64a()
	put := func(write bool, off int64, n int) {
		var b [17]byte
		if write {
			b[0] = 1
		}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(off >> (8 * i))
			b[9+i] = byte(int64(n) >> (8 * i))
		}
		h.Write(b[:])
	}
	const ops = 4096
	l := newLoad(sp, seed, geo, nil)
	if sp.open != nil {
		for _, o := range workload.Ops(seed*1000003+1, ops, geo.size, sp.open.tenants) {
			put(o.Kind == workload.OpWrite, o.Off, o.Len)
		}
	}
	for _, s := range l.streams {
		for i := 0; i < ops; i++ {
			o := s.gen()
			put(o.write, o.off, o.n)
		}
	}
	return h.Sum64()
}
