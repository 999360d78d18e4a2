package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/workload"
)

// span is one timed interval of a traced run. Spans are kept in memory
// and written out when the run ends.
type span struct {
	Name  string `json:"name"`
	ID    int    `json:"id"`
	Par   int    `json:"parent"` // 0 = none
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes"`
	root  bool   // a user op or a rebuild call: a possible parent
}

// spanLog collects spans from the load generator, the servers' tracers
// and the timing stores. It records only while on is set, so fill and
// verification traffic stay out of the file.
type spanLog struct {
	on   atomic.Bool
	zero time.Time
	mu   sync.Mutex
	all  []span
}

func (l *spanLog) add(name string, start, end time.Time, n int64) { l.put(name, start, end, n, false) }

func (l *spanLog) put(name string, start, end time.Time, n int64, root bool) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.all = append(l.all, span{Name: name, Start: int64(start.Sub(l.zero)), End: int64(end.Sub(l.zero)), Bytes: n, root: root})
	l.mu.Unlock()
}

// resolve numbers the spans and gives every child its parent: the root
// span in flight when the child started. That is exact because a traced
// run has one root — one user op or one rebuild call — in flight at a
// time.
func (l *spanLog) resolve() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.all, func(i, j int) bool { return l.all[i].Start < l.all[j].Start })
	var roots []int
	for i := range l.all {
		l.all[i].ID = i + 1
		if l.all[i].root {
			roots = append(roots, i)
		}
	}
	for i := range l.all {
		s := &l.all[i]
		if s.root {
			continue
		}
		// Last root starting at or before s.
		k := sort.Search(len(roots), func(k int) bool { return l.all[roots[k]].Start > s.Start }) - 1
		if k >= 0 && l.all[roots[k]].End >= s.Start {
			s.Par = l.all[roots[k]].ID
		}
	}
	return l.all
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.resolve() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingStore is the traced run's benchmark-side store wrapper: it
// counts and times every call the server makes into the store.
type timingStore struct {
	inner blockserver.Store
	rec   *storeRecorder
}

// storeRecorder accumulates what every timingStore of a fleet saw.
type storeRecorder struct {
	calls, busyNs          atomic.Int64
	readBytes, writeBytes  atomic.Int64
	sliceCalls, sliceBytes atomic.Int64
	spans                  *spanLog // nil = counts only
}

func (s *timingStore) Size() int64 { return s.inner.Size() }

func (s *timingStore) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := s.inner.ReadAt(p, off)
	s.rec.note("store.read", t0, int64(n))
	s.rec.readBytes.Add(int64(n))
	return n, err
}

func (s *timingStore) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := s.inner.WriteAt(p, off)
	s.rec.note("store.write", t0, int64(n))
	s.rec.writeBytes.Add(int64(n))
	return n, err
}

func (r *storeRecorder) note(name string, t0 time.Time, n int64) {
	end := time.Now()
	r.calls.Add(1)
	r.busyNs.Add(int64(end.Sub(t0)))
	r.spans.add(name, t0, end, n)
}

// timingDirectStore additionally forwards Slice, so a MemStore behind
// the wrapper keeps the server's zero-copy path. Only stores that have
// Slice get this type: a wrapped FileStore must not grow one.
type timingDirectStore struct {
	timingStore
	direct blockserver.DirectStore
}

func (s *timingDirectStore) Slice(off, n int64) ([]byte, bool) {
	t0 := time.Now()
	p, ok := s.direct.Slice(off, n)
	s.rec.note("store.slice", t0, n)
	return p, ok
}

// wrapTimed returns the fleetOpts.wrap function recording into rec.
func wrapTimed(rec *storeRecorder) func(blockserver.Store) blockserver.Store {
	return func(inner blockserver.Store) blockserver.Store {
		ts := timingStore{inner: inner, rec: rec}
		if d, ok := inner.(blockserver.DirectStore); ok {
			return &timingDirectStore{timingStore: ts, direct: d}
		}
		return &ts
	}
}

// runTraced produces the per-layer metrics: the layer ladder, the
// layout costs, then one shortened single-caller repetition of the
// workload on a fleet whose stores, servers and ops are all timed from
// the benchmark's side. No end-to-end metric comes from here.
func runTraced(ctx context.Context, c *config) (*result, error) {
	res := newResult()
	scale := c.seconds / 10
	if err := ladder(ctx, c, res, scale); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	layoutCosts(res, scale)
	if err := tracedWorkload(ctx, c, res, scale); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.set(perLayer, "failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.finish(perLayer)
	return res, nil
}

// timeCell runs fn iters times in five batches and returns the median
// batch's ns per call and the whole loop's mallocs per call (whole
// process: client and server side of a loopback rung both count).
func timeCell(ctx context.Context, iters int, fn func() error) (nsOp, allocsOp float64, err error) {
	const batches = 5
	per := (iters + batches - 1) / batches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var means []float64
	n := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
			n++
		}
		means = append(means, float64(time.Since(t0))/float64(per))
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return summarize(means).median, float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// ladder times one call of the same user bytes at every rung: the bare
// stores, one blockserver round trip of element-sized ranges, one
// cluster.Volume op on a single group, one facade op on G=2. A layer's
// self cost is the difference of adjacent rungs.
func ladder(ctx context.Context, c *config, res *result, scale float64) error {
	o := fleetOpts{stripes: 128}
	iters := func(bytes int) int {
		base := 4000.0
		if bytes >= kib(1024) {
			base = 1000
		}
		return max(10, int(base*scale))
	}
	ref := make([]byte, o.userBytes())
	fillRef(ref, c.seed)
	rng := rand.New(rand.NewSource(c.seed))
	buf := make([]byte, kib(1024))
	// offsetIn draws an aligned offset for a call of n bytes in a space
	// of size bytes.
	offsetIn := func(size int64, n int) int64 { return rng.Int63n(size/int64(n)) * int64(n) }

	cell := func(rung string, withAllocs bool, size int64, do func(write bool, off int64, n int) error) error {
		for _, sh := range ladderShapes {
			ns, allocs, err := timeCell(ctx, iters(sh.bytes), func() error {
				return do(sh.write, offsetIn(size, sh.bytes), sh.bytes)
			})
			if err != nil {
				return fmt.Errorf("%s.%s: %w", rung, sh.name, err)
			}
			res.set(perLayer, rung+"."+sh.name+"_ns_op", ns)
			if withAllocs {
				res.set(perLayer, rung+"."+sh.name+"_allocs_op", allocs)
			}
		}
		return nil
	}
	storeOp := func(s blockserver.Store) func(bool, int64, int) error {
		return func(write bool, off int64, n int) error {
			var err error
			if write {
				_, err = s.WriteAt(ref[off:off+int64(n)], off)
			} else {
				_, err = s.ReadAt(buf[:n], off)
			}
			return err
		}
	}

	mem := dev.NewMemStore(o.diskBytes())
	if err := cell("dev_mem", false, mem.Size(), storeOp(mem)); err != nil {
		return err
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.scratch, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := dev.OpenFileStore(filepath.Join(dir, "disk.img"), o.diskBytes())
	if err != nil {
		return err
	}
	defer fs.Close()
	if err := cell("dev_file", false, fs.Size(), storeOp(fs)); err != nil {
		return err
	}

	// blockserver: one ReadV/WriteV of element-sized ranges (one 4 KiB
	// range for the small shapes) to one loopback server.
	srv := blockserver.NewStoreServer(mem)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := blockserver.Dial(bound.String())
	if err != nil {
		return err
	}
	defer cl.Close()
	var vecs []blockserver.Vec
	var bufs [][]byte
	err = cell("blockserver", true, mem.Size(), func(write bool, off int64, n int) error {
		vecs, bufs = vecs[:0], bufs[:0]
		src := buf
		if write {
			src = ref[off : off+int64(n)]
		}
		for at := 0; at < n; at += elemBytes {
			l := min(elemBytes, n-at)
			vecs = append(vecs, blockserver.Vec{Off: off + int64(at), Len: l})
			bufs = append(bufs, src[at:at+l])
		}
		if write {
			_, err := cl.WriteV(vecs, bufs)
			return err
		}
		return cl.ReadV(vecs, bufs)
	})
	if err != nil {
		return err
	}

	// cluster: one group's volume, below the shard facade.
	one := &fleet{opts: o, arch: shiftedmirror.NewShiftedMirror(mirrorN)}
	defer one.close()
	addrs, err := one.spawnGroup()
	if err != nil {
		return err
	}
	cv, err := cluster.Open(one.arch, addrs, cluster.WithGeometry(elemBytes, o.stripes))
	if err != nil {
		return err
	}
	defer cv.Close()
	volOp := func(v workload.Target) func(bool, int64, int) error {
		return func(write bool, off int64, n int) error {
			var err error
			if write {
				_, err = v.WriteAtCtx(ctx, ref[off:off+int64(n)], off)
			} else {
				_, err = v.ReadAtCtx(ctx, buf[:n], off)
			}
			return err
		}
	}
	if err := cell("cluster", true, cv.Size(), volOp(cv)); err != nil {
		return err
	}

	// shard: the facade the workloads drive.
	f, err := newFleet(shiftedmirror.NewShiftedMirror(mirrorN), o, ref)
	if err != nil {
		return err
	}
	defer f.close()
	return cell("shard", true, f.vol.Size(), volOp(f.vol))
}

// layoutCosts times the placement calls the cluster data path makes per
// element, and the rebuild-source oracle.
func layoutCosts(res *result, scale float64) {
	p := layout.PlacementOf(layout.NewShifted(mirrorN))
	periods := max(10, int(2000*scale))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for it := 0; it < periods; it++ {
		for s := int64(0); s < int64(p.Period()); s++ {
			for d := 0; d < mirrorN; d++ {
				for r := 0; r < mirrorN; r++ {
					for _, slot := range p.Copies(s, layout.Addr{Disk: d, Row: r}) {
						p.Owner(s, slot)
					}
					calls++
				}
			}
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.set(perLayer, "layout.copies_ns_op", float64(el)/float64(calls))
	res.set(perLayer, "layout.copies_allocs_op", float64(m1.Mallocs-m0.Mallocs)/float64(calls))
	var times []float64
	for i := 0; i < max(5, int(50*scale)); i++ {
		t0 := time.Now()
		layout.RebuildSources(p, lostDisk.Index, 128)
		times = append(times, float64(time.Since(t0)))
	}
	res.set(perLayer, "layout.rebuild_sources_ns", times...)
}

// tracedFleet is a fleet with every store wrapped by a timingStore and
// every server reporting to a tracer and shared metrics.
type tracedFleet struct {
	*fleet
	rec     *storeRecorder
	metrics *blockserver.Metrics
	busy    []*atomic.Int64 // per server: Σ request service time, ns
}

func (c *config) newTracedFleet(arch *shiftedmirror.Mirror, ref []byte, log *spanLog) (*tracedFleet, error) {
	tf := &tracedFleet{rec: &storeRecorder{spans: log}, metrics: blockserver.NewMetrics()}
	o := c.fleetOpts()
	o.wrap = wrapTimed(tf.rec)
	o.srvOpts = func() []blockserver.ServerOption {
		busy := &atomic.Int64{}
		tf.busy = append(tf.busy, busy)
		tracer := obs.TracerFunc(func(e obs.Event) {
			end := time.Now() // the callback runs as the request completes
			busy.Add(int64(e.Dur))
			log.add("server."+e.Op, end.Add(-e.Dur), end, e.Bytes)
		})
		return []blockserver.ServerOption{blockserver.WithTracer(tracer), blockserver.WithMetrics(tf.metrics)}
	}
	f, err := newFleet(arch, o, ref)
	if err != nil {
		return nil, err
	}
	tf.fleet = f
	return tf, nil
}

// counters is a snapshot of everything the traced window diffs.
type counters struct {
	shard                                 shiftedmirror.ShardStats
	server                                blockserver.MetricsSnapshot
	frames                                int64
	busy                                  []int64
	calls, busyNs, readBytes, writeBytes  int64
	elements, requests, batches, batchEls int64
}

func (tf *tracedFleet) snapshot() counters {
	k := counters{shard: tf.vol.Stats(), server: tf.metrics.Snapshot()}
	for _, o := range k.server.Ops {
		k.frames += o.Ops
	}
	for _, b := range tf.busy {
		k.busy = append(k.busy, b.Load())
	}
	k.calls, k.busyNs = tf.rec.calls.Load(), tf.rec.busyNs.Load()
	k.readBytes, k.writeBytes = tf.rec.readBytes.Load(), tf.rec.writeBytes.Load()
	for _, g := range k.shard.PerGroup {
		k.elements += g.Cluster.ElementsRead + g.Cluster.ElementsWritten
		k.batches += g.Cluster.WriteBatches
		k.batchEls += g.Cluster.WriteBatchElements
		for _, b := range g.Cluster.Backends {
			k.requests += b.Requests
		}
	}
	return k
}

// tracedRecon fails the lost disk, serves a few reads aimed at it (one
// at a time), rebuilds it with nothing else in flight, and returns the
// per-backend rebuild-source element counts of the rebuilding group.
func tracedRecon(ctx context.Context, c *config, tf *tracedFleet, l *load, log *spanLog, scale float64, res *result) ([]int64, error) {
	want, err := diskImage(tf.backends[lostGroup][lostDisk])
	if err != nil {
		return nil, err
	}
	if err := tf.vol.Fail(lostGroup, lostDisk); err != nil {
		return nil, fmt.Errorf("fail: %w", err)
	}
	ls := &loadState{ref: l.ref, geo: l.geo}
	ls.rebuilding.Store(true)
	ls.onOp = func(o op, start, end time.Time) { log.put("op.degraded_read", start, end, int64(o.n), true) }
	aim := newStream(clientSpec{opBytes: kib(4), readFrac: 1, pattern: aimed}, c.seed, l.geo)
	t := &tally{}
	buf := make([]byte, kib(4))
	for i := 0; i < max(5, int(50*scale)); i++ {
		ls.issue(ctx, tf.vol, aim.gen(), buf, time.Time{}, t)
	}
	res.count(t)
	if c.sp.replace {
		err = tf.replace()
	} else {
		err = scribble(tf.backends[lostGroup][lostDisk])
	}
	if err != nil {
		return nil, err
	}
	gv, _ := tf.vol.GroupVolume(lostGroup)
	gv.ResetRebuildReads()
	t0 := time.Now()
	if err := tf.vol.RebuildDisk(ctx, lostGroup, lostDisk); err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	log.put("rebuild", t0, time.Now(), int64(len(want)), true)
	res.Attempted++
	if same, err := diskEquals(tf.backends[lostGroup][lostDisk], want); err != nil {
		return nil, err
	} else if !same {
		res.problem("%s fleet: rebuilt disk differs from its image before the failure", tf.arch.Name())
	}
	var got []int64
	for _, b := range gv.Stats().Backends {
		got = append(got, b.RebuildReadElements)
	}
	return got, nil
}

// sourceShape summarises per-backend rebuild reads: how many backends
// served any, the max−min over those, and how many backends differ from
// the layout oracle.
func sourceShape(arch *shiftedmirror.Mirror, got []int64, stripes int) (sources, imbalance, mismatch float64) {
	want := layout.RebuildSources(layout.PlacementOf(arch.Mirrors()...), lostDisk.Index, int64(stripes))
	lo, hi := int64(-1), int64(0)
	for i, n := range got {
		if i >= len(want) || n != want[i] {
			mismatch++
		}
		if n == 0 {
			continue
		}
		sources++
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if sources > 0 {
		imbalance = float64(hi - lo)
	}
	return sources, imbalance, mismatch
}

// tailDiagnostics runs a short untraced window of the workload's real
// (multi-client) traffic and one reconstruction block on the plain
// fleet, for the tail latencies the end-to-end list does not carry.
func tailDiagnostics(ctx context.Context, c *config, plain *fleet, geo geometry, ref []byte, res *result) error {
	const reps = 5
	h := healthyWindow(ctx, newLoad(c.sp, c.seed, geo, ref), plain.vol, reps, c.share(0.1)/reps, res)
	res.set(perLayer, "read_p99_ms", h.rp99...)
	res.set(perLayer, "write_p99_ms", h.wp99...)
	rc, err := newRecon(plain, newLoad(c.sp, c.seed+1, geo, ref))
	if err != nil {
		return err
	}
	if err := rc.window(ctx, c.sp, c.share(0.1), res); err != nil {
		return fmt.Errorf("plain-fleet reconstruction: %w", err)
	}
	res.set(perLayer, "degraded_read_p99_ms", latencyMs(rc.degraded, 0.99))
	return nil
}

// reportWindow turns the counters around the traced window into the
// per-op and per-user-byte layer metrics.
func reportWindow(res *result, before, after counters, t *tally, wall time.Duration) {
	ops, user := float64(t.ops), float64(t.bytes)
	var busyS float64
	for _, lats := range [][]time.Duration{t.reads, t.writes, t.degraded} {
		for _, d := range lats {
			busyS += d.Seconds()
		}
	}
	res.set(perLayer, "shard.ops", float64(after.shard.Reads+after.shard.Writes-before.shard.Reads-before.shard.Writes))
	res.set(perLayer, "shard.busy_s", busyS)
	res.set(perLayer, "shard.split_share", float64(after.shard.BoundarySplits-before.shard.BoundarySplits)/ops)
	res.set(perLayer, "cluster.elements_per_op", float64(after.elements-before.elements)/ops)
	res.set(perLayer, "cluster.backend_requests_per_op", float64(after.requests-before.requests)/ops)
	batchFactor := 0.0
	if d := after.batches - before.batches; d > 0 {
		batchFactor = float64(after.batchEls-before.batchEls) / float64(d)
	}
	res.set(perLayer, "cluster.write_batch_factor", batchFactor)
	frames := float64(after.frames - before.frames)
	res.set(perLayer, "blockserver.frames", frames)
	res.set(perLayer, "blockserver.bytes_in_per_user_byte", float64(after.server.BytesIn-before.server.BytesIn)/user)
	res.set(perLayer, "blockserver.bytes_out_per_user_byte", float64(after.server.BytesOut-before.server.BytesOut)/user)
	res.set(perLayer, "blockserver.zero_copy_share", float64(after.server.ZeroCopy-before.server.ZeroCopy)/max(frames, 1))
	var depths []float64
	var serverBusy float64
	for i := range after.busy {
		var was int64
		if i < len(before.busy) {
			was = before.busy[i]
		}
		d := float64(after.busy[i]-was) / 1e9
		serverBusy += d
		depths = append(depths, d/wall.Seconds())
	}
	sort.Float64s(depths)
	res.set(perLayer, "blockserver.server_busy_s", serverBusy)
	res.set(perLayer, "blockserver.queue_depth_mean", serverBusy/wall.Seconds()/float64(len(depths)))
	res.set(perLayer, "blockserver.queue_depth_max", depths[len(depths)-1])
	res.set(perLayer, "dev.calls", float64(after.calls-before.calls))
	res.set(perLayer, "dev.busy_s", float64(after.busyNs-before.busyNs)/1e9)
	res.set(perLayer, "dev.bytes_written_per_user_byte", float64(after.writeBytes-before.writeBytes)/user)
	res.set(perLayer, "dev.bytes_read_per_user_byte", float64(after.readBytes-before.readBytes)/user)
	res.set(perLayer, "workload.lag_p99_ms", latencyMs(t.lags, 0.99)) // 0 for a closed loop
}

// reportFaults reports the fault and connection counters over the
// traced fleet's whole life, reconstruction included.
func reportFaults(res *result, final counters) {
	var degraded, failovers, retries, dials, errs int64
	for _, g := range final.shard.PerGroup {
		degraded += g.Cluster.DegradedReads
		failovers += g.Cluster.Failovers
		for _, b := range g.Cluster.Backends {
			retries += b.Retries
			dials += b.Dials
			errs += b.Errors
		}
		if g.Group == lostGroup {
			res.set(perLayer, "cluster.rebuild_slice_p99_ms", ms(g.Cluster.Rebuild.SliceLatency.Quantile(0.99)))
		}
	}
	res.set(perLayer, "cluster.degraded_reads", float64(degraded))
	res.set(perLayer, "cluster.failovers", float64(failovers))
	res.set(perLayer, "cluster.retries", float64(retries))
	res.set(perLayer, "cluster.dials", float64(dials))
	res.set(perLayer, "cluster.errors", float64(errs))
	res.set(perLayer, "blockserver.conns", float64(final.server.Conns))
	res.set(perLayer, "blockserver.conns_torn", float64(final.server.ConnsTorn))
}

// tracedWorkload replays a fixed number of the workload's ops from one
// caller, first on a plain fleet (the untraced baseline the tracing
// overhead is measured against), then on the traced fleet, then runs
// one traced reconstruction per arrangement.
func tracedWorkload(ctx context.Context, c *config, res *result, scale float64) error {
	sp := c.sp
	o := c.fleetOpts()
	ref := make([]byte, o.userBytes())
	fillRef(ref, c.seed)
	count := max(20, int(float64(sp.traceOps)*scale))
	log := &spanLog{zero: time.Now()}

	// Untraced baseline, same ops.
	plain, err := newFleet(shiftedmirror.NewShiftedMirror(mirrorN), o, ref)
	if err != nil {
		return err
	}
	geo := geometry{slotGroup: slotGroups(plain.vol), size: plain.vol.Size()}
	res.streamHash = streamHash(sp, c.seed, geo)
	pt, pwall := newLoad(sp, c.seed, geo, ref).replaySingle(ctx, plain.vol, count, nil)
	res.count(pt)
	err = tailDiagnostics(ctx, c, plain, geo, ref, res)
	plain.close()
	if err != nil {
		return err
	}

	tf, err := c.newTracedFleet(shiftedmirror.NewShiftedMirror(mirrorN), ref, log)
	if err != nil {
		return err
	}
	defer tf.close()
	l := newLoad(sp, c.seed, geo, ref)
	before := tf.snapshot()
	log.on.Store(true)
	t, wall := l.replaySingle(ctx, tf.vol, count, func(o op, start, end time.Time) {
		name := "op.read"
		if o.write {
			name = "op.write"
		}
		log.put(name, start, end, int64(o.n), true)
	})
	log.on.Store(false)
	after := tf.snapshot()
	res.count(t)
	if t.ops == 0 || t.bytes == 0 || pt.bytes == 0 {
		return fmt.Errorf("traced window completed no op")
	}

	reportWindow(res, before, after, t, wall)
	res.set(perLayer, "workload.gen_s", l.genTime.Seconds())
	res.set(perLayer, "bench.trace_overhead_share", 1-(float64(t.bytes)/wall.Seconds())/(float64(pt.bytes)/pwall.Seconds()))

	// Traced reconstruction, shifted then traditional.
	log.on.Store(true)
	got, err := tracedRecon(ctx, c, tf, l, log, scale, res)
	log.on.Store(false)
	if err != nil {
		return fmt.Errorf("shifted reconstruction: %w", err)
	}
	sources, imbalance, mismatch := sourceShape(tf.arch, got, sp.stripes)
	final := tf.snapshot()
	reportFaults(res, final)
	res.set(perLayer, "cluster.rebuild_sources", sources)
	res.set(perLayer, "cluster.rebuild_source_imbalance", imbalance)

	off := &spanLog{} // the span file follows the shifted fleet only
	tt, err := c.newTracedFleet(shiftedmirror.NewTraditionalMirror(mirrorN), ref, off)
	if err != nil {
		return err
	}
	defer tt.close()
	tgot, err := tracedRecon(ctx, c, tt, l, off, scale, res)
	if err != nil {
		return fmt.Errorf("traditional reconstruction: %w", err)
	}
	tsources, _, tmismatch := sourceShape(tt.arch, tgot, sp.stripes)
	res.set(perLayer, "cluster.rebuild_sources_traditional", tsources)
	res.set(perLayer, "cluster.rebuild_oracle_mismatch", mismatch+tmismatch)
	if mismatch+tmismatch != 0 {
		res.problem("rebuild read counts differ from layout.RebuildSources on %g backends (shifted %v, traditional %v)", mismatch+tmismatch, got, tgot)
	}

	for _, f := range []*fleet{tf.fleet, tt.fleet} {
		res.Attempted++
		if err := verifyFleet(ctx, f, ref); err != nil {
			res.problem("%s fleet: %v", f.arch.Name(), err)
		}
	}
	path := c.traceOut
	if path == "" {
		path = filepath.Join(c.scratch, "spans-"+sp.name+".jsonl")
	}
	if err := log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(c.out, "bench: %d spans written to %s\n", len(log.all), path)
	return nil
}
