package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"shiftedmirror"
	"shiftedmirror/internal/workload"
)

// config is one benchmark invocation.
type config struct {
	sp       *spec
	seed     int64
	seconds  float64
	scratch  string    // directory for FileStore files and the span file
	traceOut string    // span file of a traced run, "" = under scratch
	out      io.Writer // human-readable report
	setups   int       // set-ups per run; setup_s is their median
	// corrupt, when set, damages a store behind the filled volume; the
	// run must then fail. Tests only.
	corrupt func(f *fleet)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome; its exported fields are the benchmark's
// result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	streamHash uint64
	dists      map[string]dist   // spread behind each median, for the report
	diags      map[string]metric // printed, never part of the result line
	problems   []string          // correctness violations
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, dists: map[string]dist{}, diags: map[string]metric{}}
}

func (r *result) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
	r.Failed++
}

func (r *result) count(t *tally) {
	r.Attempted += t.ops
	r.Failed += t.failed
}

// set records a metric from repeated measurements: the median is the
// value, the spread is kept for the report.
func (r *result) set(defs []metricDef, name string, vals ...float64) {
	for _, d := range defs {
		if d.name == name {
			s := summarize(vals)
			r.Metrics[name] = metric{Value: s.median, Unit: d.unit}
			r.dists[name] = s
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// diag records a diagnostic the report prints beside the metrics.
func (r *result) diag(name, unit string, vals ...float64) {
	s := summarize(vals)
	r.diags[name] = metric{Value: s.median, Unit: unit}
	r.dists[name] = s
}

// finish checks every catalogued metric came out finite and closes the
// verdict.
func (r *result) finish(defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s has no finite value", d.name)
		}
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
}

// fleetPair is the two identical fleets a workload runs on, differing
// only in the mirror arrangement.
type fleetPair struct {
	shifted, traditional *fleet
}

func (p *fleetPair) close() {
	for _, f := range []*fleet{p.shifted, p.traditional} {
		if f != nil {
			f.close()
		}
	}
}

func (c *config) fleetOpts() fleetOpts {
	return fleetOpts{file: c.sp.file, scratch: c.scratch, readRate: c.sp.readRate, stripes: c.sp.stripes, spare: c.sp.replace}
}

// newPair spawns, opens and fills both fleets.
func newPair(o fleetOpts, ref []byte) (*fleetPair, error) {
	p := &fleetPair{}
	var err error
	if p.shifted, err = newFleet(shiftedmirror.NewShiftedMirror(mirrorN), o, ref); err != nil {
		return nil, fmt.Errorf("shifted fleet: %w", err)
	}
	if p.traditional, err = newFleet(shiftedmirror.NewTraditionalMirror(mirrorN), o, ref); err != nil {
		p.close()
		return nil, fmt.Errorf("traditional fleet: %w", err)
	}
	return p, nil
}

func (c *config) share(s float64) time.Duration {
	return time.Duration(s * c.seconds * float64(time.Second))
}

// runUntraced is the end-to-end run: set up, rounds of healthy
// repetitions and reconstruction blocks, then the full verification.
func runUntraced(ctx context.Context, c *config) (*result, error) {
	sp, res := c.sp, newResult()
	o := c.fleetOpts()
	ref := make([]byte, o.userBytes())
	fillRef(ref, c.seed)

	var pair *fleetPair
	defer func() {
		if pair != nil {
			pair.close()
		}
	}()
	var setups []float64
	for i := 0; i < c.setups; i++ {
		if pair != nil {
			pair.close()
			pair = nil
			// Return the previous fleets' stores before timing the next
			// set-up, so neither setup_s nor peak_rss_MB depends on when
			// the collector happens to run.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if pair, err = newPair(o, ref); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set(endToEnd, "setup_s", setups...)
	if c.corrupt != nil {
		c.corrupt(pair.shifted)
	}

	geo := geometry{slotGroup: slotGroups(pair.shifted.vol), size: pair.shifted.vol.Size()}
	res.streamHash = streamHash(sp, c.seed, geo)

	// The run is rounds of (healthy repetitions, reconstruction block on
	// the shifted fleet, the same on the traditional fleet), so every
	// metric's samples span the whole run: a few seconds of interference
	// from the host then touch a minority of them and the medians hold,
	// and both arrangements see the same machine conditions.
	l := newLoad(sp, c.seed, geo, ref)
	sh, err := newRecon(pair.shifted, newLoad(sp, c.seed+1, geo, ref))
	if err != nil {
		return nil, err
	}
	tr, err := newRecon(pair.traditional, newLoad(sp, c.seed+1, geo, ref))
	if err != nil {
		return nil, err
	}
	warm, _ := l.window(ctx, pair.shifted.vol, c.share(sp.warm), nil)
	res.count(warm)
	var h healthyStats
	rounds := time.Duration(sp.rounds)
	for r := 0; r < sp.rounds; r++ {
		h.add(healthyWindow(ctx, l, pair.shifted.vol, healthyReps/sp.rounds, c.share(sp.healthy)/healthyReps, res))
		if err := sh.window(ctx, sp, c.share(sp.shifted)/rounds, res); err != nil {
			return nil, fmt.Errorf("shifted reconstruction: %w", err)
		}
		if err := tr.window(ctx, sp, c.share(sp.traditional)/rounds, res); err != nil {
			return nil, fmt.Errorf("traditional reconstruction: %w", err)
		}
	}
	// Every time-based metric is the median of the per-repetition values.
	res.set(endToEnd, "user_MBps", h.mbps...)
	res.set(endToEnd, "read_p50_ms", h.rp50...)
	res.set(endToEnd, "write_p50_ms", h.wp50...)
	res.set(endToEnd, "allocs_per_op", h.allocs...)
	// Tails do not repeat within any bound on the CPU-bound fleets, so
	// the end-to-end run only prints them; the traced invocation reports
	// them as unbounded diagnostics.
	res.diag("read_p99_ms", "ms", h.rp99...)
	res.diag("write_p99_ms", "ms", h.wp99...)
	if len(sh.degraded) == 0 {
		res.problem("no read addressed the lost disk while it rebuilt")
	} else {
		res.set(endToEnd, "degraded_read_p50_ms", latencyMs(sh.degraded, 0.5))
		res.dists["degraded_read_p50_ms"] = dist{n: len(sh.degraded)}
		res.diag("degraded_read_p99_ms", "ms", latencyMs(sh.degraded, 0.99))
	}
	diskMB := float64(o.diskBytes()) / 1e6
	var rates []float64
	for _, s := range sh.rebuildSecs {
		rates = append(rates, diskMB/s)
	}
	res.set(endToEnd, "rebuild_MBps", rates...)
	res.set(endToEnd, "rebuild_speedup_x", summarize(tr.rebuildSecs).median/summarize(sh.rebuildSecs).median)
	res.dists["rebuild_speedup_x"] = dist{n: len(tr.rebuildSecs)}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, f := range []*fleet{pair.shifted, pair.traditional} {
		res.Attempted++
		if err := verifyFleet(ctx, f, ref); err != nil {
			res.problem("%s fleet: %v", f.arch.Name(), err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set(endToEnd, "peak_rss_MB", rss)
	res.finish(endToEnd)
	return res, nil
}

// healthyStats holds one value per repetition of a healthy window.
type healthyStats struct{ mbps, rp50, rp99, wp50, wp99, allocs []float64 }

func (h *healthyStats) add(o healthyStats) {
	h.mbps = append(h.mbps, o.mbps...)
	h.rp50 = append(h.rp50, o.rp50...)
	h.rp99 = append(h.rp99, o.rp99...)
	h.wp50 = append(h.wp50, o.wp50...)
	h.wp99 = append(h.wp99, o.wp99...)
	h.allocs = append(h.allocs, o.allocs...)
}

// healthyWindow runs reps repetitions of the workload's traffic on a
// healthy volume. allocs is the whole process's malloc count over the
// repetition divided by its user ops: an exact count, not a sample.
func healthyWindow(ctx context.Context, l *load, vol workload.Target, reps int, rep time.Duration, res *result) healthyStats {
	var h healthyStats
	for i := 0; i < reps && ctx.Err() == nil; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t, wall := l.window(ctx, vol, rep, nil)
		runtime.ReadMemStats(&m1)
		res.count(t)
		if len(t.reads) == 0 || len(t.writes) == 0 {
			continue // too short a repetition to hold both kinds
		}
		h.mbps = append(h.mbps, float64(t.bytes)/1e6/wall.Seconds())
		h.rp50 = append(h.rp50, latencyMs(t.reads, 0.5))
		h.rp99 = append(h.rp99, latencyMs(t.reads, 0.99))
		h.wp50 = append(h.wp50, latencyMs(t.writes, 0.5))
		h.wp99 = append(h.wp99, latencyMs(t.writes, 0.99))
		h.allocs = append(h.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(t.ops))
	}
	return h
}

// recon is one fleet's reconstruction state across its windows.
type recon struct {
	f           *fleet
	l           *load
	want        []byte // the lost disk's image before any failure
	rebuildSecs []float64
	degraded    []time.Duration
}

func newRecon(f *fleet, l *load) (*recon, error) {
	want, err := diskImage(f.backends[lostGroup][lostDisk])
	if err != nil {
		return nil, err
	}
	return &recon{f: f, l: l, want: want}, nil
}

// window repeats Fail → hold → (ReplaceBackend | scribble) → RebuildDisk
// on the lost disk while the workload's traffic runs, until budget is
// spent (at least one cycle). Every rebuilt disk must come back
// byte-identical.
func (r *recon) window(ctx context.Context, sp *spec, budget time.Duration, res *result) error {
	var cycleErr error
	t, _ := r.l.window(ctx, r.f.vol, budget, func(ls *loadState) {
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < budget; n++ {
			secs, same, err := reconCycle(ctx, sp, r.f, ls, r.want)
			if err != nil {
				cycleErr = err
				return
			}
			res.Attempted++
			if !same {
				res.problem("%s fleet: rebuilt disk differs from its image before the failure", r.f.arch.Name())
			}
			r.rebuildSecs = append(r.rebuildSecs, secs)
		}
	})
	res.count(t)
	r.degraded = append(r.degraded, t.degraded...)
	return cycleErr
}

// reconCycle is one failure and reconstruction of the lost disk; it
// returns the rebuild's wall time and whether the disk came back
// byte-identical.
func reconCycle(ctx context.Context, sp *spec, f *fleet, ls *loadState, want []byte) (secs float64, same bool, err error) {
	if err := f.vol.Fail(lostGroup, lostDisk); err != nil {
		return 0, false, fmt.Errorf("fail: %w", err)
	}
	ls.rebuilding.Store(true)
	defer ls.rebuilding.Store(false)
	sleepCtx(ctx, sp.hold)
	if sp.replace {
		if err := f.replace(); err != nil {
			return 0, false, fmt.Errorf("replace backend: %w", err)
		}
	} else if err := scribble(f.backends[lostGroup][lostDisk]); err != nil {
		return 0, false, fmt.Errorf("scribble: %w", err)
	}
	t0 := time.Now()
	if err := f.vol.RebuildDisk(ctx, lostGroup, lostDisk); err != nil {
		return 0, false, fmt.Errorf("rebuild: %w", err)
	}
	secs = time.Since(t0).Seconds()
	ls.rebuilding.Store(false)
	same, err = diskEquals(f.backends[lostGroup][lostDisk], want)
	return secs, same, err
}
