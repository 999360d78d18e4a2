package cluster

import (
	"context"
	"slices"
	"sync"
	"time"

	"shiftedmirror/internal/blockserver"
)

// Hedged reads: the tail-at-scale defense the paper's placement makes
// cheap. Every element has a replica (P1), and under the shifted
// arrangement one disk's replicas spread across all n mirror backends
// (P2) — so racing a slow backend against the replica locations fans
// the backup load out over the whole cluster instead of doubling one
// twin's traffic. The race fires only after an adaptive delay (a
// quantile of recent per-backend fetch latency), so in the common case
// the hedge costs nothing but a timer.

// hedgeTarget is one span's backup location, with a private scratch
// buffer: the primary writes straight into the span's real buffer, so
// the backup must land elsewhere until the primary is known to have
// stopped (cancelled and joined) — otherwise the two transfers race.
type hedgeTarget struct {
	s   *span
	loc location
	buf []byte
}

// hedgeGroup is one backup backend's share of a hedged batch.
type hedgeGroup struct {
	slot    int
	targets []hedgeTarget
}

// readBatch serves one backend's batch of spans through the exchange x
// (already loaded with the batch's ranges), racing it against the
// spans' replica locations when hedging is on, the fetch is a user
// read, and every span still has a live backup copy.
func (v *Volume) readBatch(ctx context.Context, slot int, pl *opPlan, batch []int32, x *vecOp, kind fetchKind) error {
	if v.cfg.HedgeEnabled && kind == fetchUser {
		if backups := v.backupGroups(slot, pl, batch); backups != nil {
			return v.hedgedRead(ctx, slot, x, backups)
		}
		// Degraded to a single surviving copy somewhere in the batch (or
		// the replicas' backends are dead): nothing to race against.
	}
	return v.readVecs(ctx, slot, x, kind)
}

// readVecs is the shared wire call: one ReadV through the backend's
// pool. Successful round trips feed the fetch-latency histogram the
// adaptive hedge delay and the rebuild QoS controller quantile;
// failures and cancelled losers are excluded so they cannot drag the
// trigger around, and so are rebuild gathers — a throttled rebuild
// round trip is not user-visible latency, and letting it into the
// histogram would feed the QoS controller its own throttling as
// apparent SLO pressure.
func (v *Volume) readVecs(ctx context.Context, slot int, x *vecOp, kind fetchKind) error {
	start := time.Now()
	err := v.pools[slot].doCtx(ctx, x)
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

// backupGroups finds each span's next surviving replica location and
// groups them by backend, allocating scratch buffers. It returns nil —
// disabling the hedge — when any span has no usable backup: the volume
// is degraded to a single copy there, and a half-hedged batch would
// still tail on the un-hedged spans.
func (v *Volume) backupGroups(primary int, pl *opPlan, batch []int32) []hedgeGroup {
	var groups []hedgeGroup
	for _, si := range batch {
		s := &pl.spans[si]
		locs := v.locations(s.stripe, s.disk, s.row)
		found := false
		for _, loc := range locs[s.src+1:] {
			if loc.slot == primary || !v.available(loc.slot, s.stripe) || v.pools[loc.slot].isDead() {
				continue
			}
			g := slices.IndexFunc(groups, func(g hedgeGroup) bool { return g.slot == loc.slot })
			if g < 0 {
				g = len(groups)
				groups = append(groups, hedgeGroup{slot: loc.slot})
			}
			groups[g].targets = append(groups[g].targets, hedgeTarget{s: s, loc: loc, buf: make([]byte, len(s.buf))})
			found = true
			break
		}
		if !found {
			return nil
		}
	}
	return groups
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

// hedgedRead races the primary batch against its replica locations.
// The primary reads into the spans' real buffers; the backup fires only
// after the adaptive delay, reads into scratch, and is copied over only
// after the primary has been cancelled *and joined* — so the span
// buffers are never written by two goroutines at once. Both goroutines
// are always drained before returning: they touch pools and stats that
// are only safe while the caller holds the volume lock, and leaking
// them would also break the no-goroutine-leak guarantee the tests pin.
func (v *Volume) hedgedRead(ctx context.Context, slot int, x *vecOp, backups []hedgeGroup) error {
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	primDone := make(chan error, 1)
	go func() { primDone <- v.readVecs(primCtx, slot, x, fetchUser) }()

	timer := time.NewTimer(v.hedgeDelay())
	select {
	case err := <-primDone:
		timer.Stop()
		return err
	case <-ctx.Done():
		timer.Stop()
		cancelPrim()
		<-primDone
		return ctx.Err()
	case <-timer.C:
	}

	// The primary is slow: fire the backup fan-out and race the two.
	v.stats.hedgeAttempts.Inc()
	backupCtx, cancelBackup := context.WithCancel(ctx)
	defer cancelBackup()
	backupDone := make(chan error, 1)
	go func() { backupDone <- v.readBackups(backupCtx, backups) }()

	select {
	case err := <-primDone:
		cancelBackup()
		berr := <-backupDone
		if err == nil {
			// The primary recovered before the backup landed.
			v.stats.hedgeLosses.Inc()
			v.stats.hedgeCancels.Inc()
			return nil
		}
		if berr == nil {
			// The primary died after the hedge fired; the backup carried it.
			commitBackups(backups)
			v.stats.hedgeWins.Inc()
			return nil
		}
		return err
	case berr := <-backupDone:
		if berr != nil {
			// The backup lost its own race with failure; fall back to
			// whatever the primary delivers (failover handles its error).
			return <-primDone
		}
		cancelPrim()
		<-primDone // the primary must stop writing the span buffers first
		commitBackups(backups)
		v.stats.hedgeWins.Inc()
		v.stats.hedgeCancels.Inc()
		return nil
	case <-ctx.Done():
		cancelPrim()
		cancelBackup()
		<-primDone
		<-backupDone
		return ctx.Err()
	}
}

// readBackups fans the backup spans out to their (distinct, by P2)
// backends in parallel and returns the first error, if any. All-or-
// nothing: a partially served backup set cannot win the race.
func (v *Volume) readBackups(ctx context.Context, groups []hedgeGroup) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- v.readBackupGroup(ctx, g)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (v *Volume) readBackupGroup(ctx context.Context, g hedgeGroup) error {
	var x vecOp
	for _, t := range g.targets {
		x.add(v.storeOffset(t.s.stripe, t.loc.row)+t.s.inner, t.buf)
	}
	return v.readVecs(ctx, g.slot, &x, fetchUser)
}

// commitBackups copies the winning backup's scratch buffers into the
// spans' real buffers. Only called after the primary has been joined.
func commitBackups(groups []hedgeGroup) {
	for _, g := range groups {
		for _, t := range g.targets {
			copy(t.s.buf, t.buf)
		}
	}
}
