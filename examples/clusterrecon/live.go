package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
	"shiftedmirror/internal/workload"
)

// The live-traffic phase is the paper's availability claim under the
// conditions that actually matter: the rebuild runs *while* a seeded
// multi-tenant workload keeps reading and writing, throttled by the
// QoS controller so user-read p99 holds an SLO derived from the idle
// baseline. Shifted must keep live p99 within a bounded factor of the
// idle baseline — its degraded reads and rebuild gathers fan out over
// all n backends — while traditional piles both onto the single twin.
// The same run hard-asserts the rebuild's forward progress: the
// watermark advances monotonically and the end-to-end rate stays at or
// above the QoS floor.

// tenantLive is one tenant's latency summary from the live phase.
type tenantLive struct {
	Name      string  `json:"name"`
	Reads     int     `json:"reads"`
	Writes    int     `json:"writes"`
	ReadP50Ms float64 `json:"read_p50_ms"`
	ReadP99Ms float64 `json:"read_p99_ms"`
}

// liveRun is one arrangement's live-traffic measurement.
type liveRun struct {
	Arrangement string `json:"arrangement"`
	// IdleP50Ms/IdleP99Ms are the read-latency baseline: the same seeded
	// workload replayed against the healthy volume before the failure.
	IdleP50Ms float64 `json:"idle_p50_ms"`
	IdleP99Ms float64 `json:"idle_p99_ms"`
	// LiveP50Ms/LiveP99Ms are read latencies with the rebuild running.
	LiveP50Ms float64 `json:"live_p50_ms"`
	LiveP99Ms float64 `json:"live_p99_ms"`
	// DegradedP99Ms covers only the reads addressing the lost disk's
	// elements — the paper's availability-during-reconstruction number.
	DegradedP99Ms float64 `json:"degraded_p99_ms"`
	DegradedReads int     `json:"degraded_reads"`
	// P99InflationX is LiveP99 over the idle baseline; DegradedInflationX
	// is DegradedP99 over the same baseline — the gated number, since the
	// paper's claim is about reads addressing the disk under
	// reconstruction. Baselines are floored at 1ms so loopback noise
	// cannot blow up the ratios.
	P99InflationX      float64 `json:"p99_inflation_x"`
	DegradedInflationX float64 `json:"degraded_inflation_x"`
	// Rebuild progress under load.
	RebuildSeconds     float64          `json:"rebuild_seconds"`
	RebuildStripesPerS float64          `json:"rebuild_stripes_per_sec"`
	WatermarkSamples   int              `json:"watermark_samples"`
	WatermarkMonotonic bool             `json:"watermark_monotonic"`
	QoS                cluster.QoSStats `json:"qos"`
	Tenants            []tenantLive     `json:"tenants"`
}

// liveReport is the whole live-traffic phase: both arrangements under
// the identical seeded workload, plus the assertion bounds used.
type liveReport struct {
	SLOMs              float64   `json:"slo_ms"`
	FloorStripesPerSec float64   `json:"floor_stripes_per_sec"`
	Ops                int       `json:"ops"`
	Tenants            int       `json:"tenants"`
	MaxInflationX      float64   `json:"max_inflation_x"`
	Runs               []liveRun `json:"runs"`
}

// liveTenants is the seeded mix: two read-heavy tenants and one light
// mixed tenant whose writes rewrite the original payload (so the
// byte-verify at the end still covers the whole volume).
func liveTenants() []workload.TenantSpec {
	return []workload.TenantSpec{
		{Name: "reader-a", Weight: 4, ReadFraction: 1, OpBytes: 4096, MeanGap: 0.002},
		{Name: "reader-b", Weight: 3, ReadFraction: 1, OpBytes: 8192, MeanGap: 0.003},
		{Name: "mixed", Weight: 1, ReadFraction: 0.7, OpBytes: 4096, MeanGap: 0.005},
	}
}

// measureLive runs one arrangement's live-traffic cycle: idle baseline,
// fail data[0], rebuild under QoS while the same seeded workload
// replays closed-loop, then byte-verify.
func measureLive(name string, arr layout.Arrangement, element int64, stripes int, rate float64, ops int, floor float64) (liveRun, float64, error) {
	lr := liveRun{Arrangement: name}
	arch := raid.NewMirror(arr)
	n := arch.N()
	diskSize := int64(stripes) * int64(n) * element

	f, backends, err := startFleet(arch, diskSize, func(raid.DiskID) backendSpec { return throttled(rate) })
	if err != nil {
		return lr, 0, err
	}
	defer f.close()

	size := diskSize * int64(n)
	payload := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(payload)
	stream := workload.Ops(23, ops, size, liveTenants())
	replayCfg := workload.ReplayConfig{
		// Writes rewrite the bytes already there: full wire cost, but the
		// final byte-verify still pins the whole volume to the payload.
		Fill: func(op workload.Op, buf []byte) {
			copy(buf, payload[op.Off:op.Off+int64(len(buf))])
		},
		Concurrency: 2,
	}

	// Idle baseline over a healthy, un-throttled-by-rebuild volume. The
	// SLO for the QoS run derives from this same number in main, so both
	// arrangements face the identical target.
	base, err := cluster.Open(arch, backends, cluster.WithGeometry(element, stripes))
	if err != nil {
		return lr, 0, err
	}
	if _, err := base.WriteAt(payload, 0); err != nil {
		base.Close()
		return lr, 0, err
	}
	idle, err := workload.ReplayClosed(context.Background(), base, stream, replayCfg)
	base.Close()
	if err != nil {
		return lr, 0, err
	}
	lr.IdleP50Ms = ms(idle.ReadP(0.50))
	lr.IdleP99Ms = ms(idle.ReadP(0.99))

	// The QoS SLO: 1.5x the idle read p99, floored at 5ms. The controller
	// oscillates just under its SLO, so the gate's 2x bound needs the
	// target itself to sit below 2x. Both arrangements get it verbatim.
	slo := idle.ReadP(0.99) * 3 / 2
	if slo < 5*time.Millisecond {
		slo = 5 * time.Millisecond
	}

	// RebuildBatch 2 keeps each exclusive-lock slice gather small, so a
	// user read arriving mid-slice waits a couple of milliseconds, not
	// tens — the lock hold, not the token rate, is what a colliding
	// read's tail actually sees.
	v, err := cluster.New(arch, backends, cluster.Config{
		ElementSize:       element,
		Stripes:           stripes,
		RebuildBatch:      2,
		RebuildQoSSLO:     slo,
		RebuildQoSMinRate: floor,
	})
	if err != nil {
		return lr, 0, err
	}
	defer v.Close()
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		return lr, 0, err
	}
	replacement, err := f.spawn(throttled(0))
	if err != nil {
		return lr, 0, err
	}
	if err := v.ReplaceBackend(lost, replacement); err != nil {
		return lr, 0, err
	}

	// Watermark sampler: the rebuild's availability frontier must only
	// ever move forward. Sampled concurrently with the rebuild and the
	// workload, so it also witnesses the lock interleaving.
	watermark := func() int64 {
		for _, b := range v.Stats().Backends {
			if b.Disk == lost.String() {
				return b.WatermarkStripes
			}
		}
		return -1
	}
	sampleCtx, stopSampler := context.WithCancel(context.Background())
	defer stopSampler()
	var samplerWG sync.WaitGroup
	var samples []int64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				samples = append(samples, watermark())
			}
		}
	}()

	// Rebuild under QoS, with the live workload replaying against the
	// degraded volume. The replay loops until the rebuild completes, so
	// every phase of the rebuild faces traffic; it always finishes the
	// pass in flight, so both arrangements issue full streams.
	rebuildDone := make(chan error, 1)
	rebuildStart := time.Now()
	go func() { rebuildDone <- v.RebuildDisk(context.Background(), lost) }()

	var rebuildErr error
	var elapsed time.Duration
	var reads []time.Duration
	degradedIdx := map[int]bool{} // indexes into reads addressing the lost disk
	specs := liveTenants()
	perTenant := make([]tenantLive, len(specs))
	tenantLats := make([][]time.Duration, len(specs))
	for i, spec := range specs {
		perTenant[i].Name = spec.Name
	}
	var obsMu sync.Mutex
	perStripe := int64(n) * int64(n)
	running := true
	for running {
		cfg := replayCfg
		cfg.Observe = func(op workload.Op, d time.Duration) {
			obsMu.Lock()
			defer obsMu.Unlock()
			tl := &perTenant[op.Tenant]
			if op.Kind == workload.OpRead {
				if (op.Off/element)%perStripe%int64(n) == int64(lost.Index) {
					degradedIdx[len(reads)] = true
				}
				reads = append(reads, d)
				tenantLats[op.Tenant] = append(tenantLats[op.Tenant], d)
				tl.Reads++
			} else {
				tl.Writes++
			}
		}
		if _, err := workload.ReplayClosed(context.Background(), v, stream, cfg); err != nil {
			return lr, 0, err
		}
		select {
		case rebuildErr = <-rebuildDone:
			elapsed = time.Since(rebuildStart)
			running = false
		default:
		}
	}
	stopSampler()
	samplerWG.Wait()
	if rebuildErr != nil {
		return lr, 0, rebuildErr
	}
	lr.RebuildSeconds = elapsed.Seconds()
	lr.RebuildStripesPerS = float64(stripes) / elapsed.Seconds()

	lr.WatermarkSamples = len(samples)
	lr.WatermarkMonotonic = true
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			lr.WatermarkMonotonic = false
		}
	}

	// Latency digest, all through the shared obs.NearestRankDur
	// estimator (the same math internal/recon reports).
	var degraded []time.Duration
	for i, d := range reads {
		if degradedIdx[i] {
			degraded = append(degraded, d)
		}
	}
	sorted := obs.SortDurations(append([]time.Duration(nil), reads...))
	lr.LiveP50Ms = ms(obs.NearestRankDur(sorted, 0.50))
	lr.LiveP99Ms = ms(obs.NearestRankDur(sorted, 0.99))
	lr.DegradedReads = len(degraded)
	lr.DegradedP99Ms = ms(obs.NearestRankDur(obs.SortDurations(degraded), 0.99))
	baseline := lr.IdleP99Ms
	if baseline < 1 {
		baseline = 1
	}
	lr.P99InflationX = lr.LiveP99Ms / baseline
	lr.DegradedInflationX = lr.DegradedP99Ms / baseline
	for i := range perTenant {
		lats := obs.SortDurations(tenantLats[i])
		perTenant[i].ReadP50Ms = ms(obs.NearestRankDur(lats, 0.50))
		perTenant[i].ReadP99Ms = ms(obs.NearestRankDur(lats, 0.99))
		lr.Tenants = append(lr.Tenants, perTenant[i])
	}

	// Byte-verify before trusting any latency number: the rebuilt volume
	// must hold exactly the payload (writes rewrote identical bytes).
	check := make([]byte, v.Size())
	if _, err := v.ReadAt(check, 0); err != nil {
		return lr, 0, err
	}
	if !bytes.Equal(check, payload) {
		return lr, 0, fmt.Errorf("post-rebuild content diverges from payload under live traffic")
	}
	lr.QoS = v.Stats().QoS
	return lr, float64(slo) / float64(time.Millisecond), nil
}

// assertLiveProperty is the CI availability gate. The hard bounds bind
// the shifted arrangement: degraded-read p99 within maxInflation of the
// idle baseline, watermark strictly monotonic, and rebuild progress at
// the QoS floor. Traditional is measured in the same run for the
// comparison but only its progress invariants are binding — its whole
// point is that the latency bound is NOT expected to hold.
func assertLiveProperty(rep liveReport) error {
	for _, r := range rep.Runs {
		if !r.WatermarkMonotonic {
			return fmt.Errorf("%s: rebuild watermark moved backwards under live traffic", r.Arrangement)
		}
		if r.WatermarkSamples == 0 {
			return fmt.Errorf("%s: watermark sampler saw no samples", r.Arrangement)
		}
		if r.QoS.RateStripesPerSec < rep.FloorStripesPerSec {
			return fmt.Errorf("%s: controller rate %.1f stripes/s ended below the configured floor %.1f",
				r.Arrangement, r.QoS.RateStripesPerSec, rep.FloorStripesPerSec)
		}
		// The floor guarantees token issue; a slice also spends gather
		// time, so the end-to-end rate gets a 2x allowance before the run
		// is called stalled.
		if r.RebuildStripesPerS < rep.FloorStripesPerSec/2 {
			return fmt.Errorf("%s: rebuild made %.1f stripes/s under load against a %.1f floor — no forward progress",
				r.Arrangement, r.RebuildStripesPerS, rep.FloorStripesPerSec)
		}
		if r.Arrangement != "shifted" {
			continue
		}
		if r.DegradedReads == 0 {
			return fmt.Errorf("shifted: live workload never touched the lost disk; the seeded stream is broken")
		}
		// The latency bound is a plain build's to assert (see raceEnabled).
		if r.DegradedInflationX > rep.MaxInflationX && !raceEnabled {
			return fmt.Errorf("shifted: degraded-read p99 %.2fms is %.2fx the idle baseline %.2fms, bound %.1fx",
				r.DegradedP99Ms, r.DegradedInflationX, r.IdleP99Ms, rep.MaxInflationX)
		}
	}
	return nil
}

// measureLivePhase drives both arrangements through measureLive with
// identical parameters and assembles the report section.
func measureLivePhase(n int, element int64, stripes int, rate float64, quick bool) (liveReport, error) {
	ops := 1200
	floor := 4.0
	if quick {
		ops = 500
		floor = 8.0
	}
	rep := liveReport{
		FloorStripesPerSec: floor,
		Ops:                ops,
		Tenants:            len(liveTenants()),
		MaxInflationX:      2.0,
	}
	for _, a := range []struct {
		name string
		arr  layout.Arrangement
	}{
		{name: "traditional", arr: layout.NewTraditional(n)},
		{name: "shifted", arr: layout.NewShifted(n)},
	} {
		lr, sloMs, err := measureLive(a.name, a.arr, element, stripes, rate, ops, floor)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", a.name, err)
		}
		rep.SLOMs = sloMs // same derivation both runs; keep the last
		rep.Runs = append(rep.Runs, lr)
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
