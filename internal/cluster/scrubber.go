package cluster

import "context"

// ScrubOnline is the background-friendly form of Scrub: the same full
// verification pass (checksum fast path, byte fallback, degraded
// verdict) for a volume that is actively serving.
//
//   - Rate limiting: when the QoS controller is enabled
//     (WithRebuildQoS), every batch first buys its stripes from the
//     same token bucket that throttles RebuildDisk, so scrub and
//     rebuild back off together when user-read p99 pressure rises.
//   - Resumability: the pass walks the volume circularly from a
//     persistent cursor (sm_cluster_scrub_cursor_stripes); a cancelled
//     pass keeps its position, and the next call picks up there
//     instead of re-verifying the stripes it already covered.
//
// One full circuit of the volume constitutes a pass: the report covers
// every stripe exactly once, the scrub counters roll, and skipped
// disks surface as ErrDegraded exactly as with Scrub. On cancellation
// the partial report and ctx's error are returned.
func (v *Volume) ScrubOnline(ctx context.Context) (ScrubReport, error) {
	return v.scrubPass(ctx, true)
}

// scrubPass is the one walker behind Scrub and ScrubOnline: every
// stripe batch once — from stripe 0, or when online circularly from the
// cursor, buying each batch's stripes from the QoS bucket first and
// parking the cursor after it.
//
// Each batch is verified against one load of the volume's state and
// holds no lock, so a pass delays nothing: the longest a Fail, a rebuild
// slice or a user op waits on a scrub is its place in a backend's queue.
//
// The pass is not a snapshot. A user write that lands on a batch's
// stripes while the batch is gathering can be seen on some copies and
// not others and read as a mismatch; a verdict is only as good as the
// quiescence of the stripes it covers.
func (v *Volume) scrubPass(ctx context.Context, online bool) (ScrubReport, error) {
	var report ScrubReport
	batch, stripes := v.cfg.RebuildBatch, v.stripes
	crc := v.cfg.WireCRC && v.parity < 0
	first := 0
	if online {
		first = int(v.scrubPos.Load()) / batch
	}
	numBatches := (stripes + batch - 1) / batch
	skipped := make([]bool, len(v.ids))
	for k := 0; k < numBatches; k++ {
		s0 := (first + k) % numBatches * batch
		s1 := min(s0+batch, stripes)
		cost := 0 // free: acquire then only checks ctx
		if online {
			cost = s1 - s0
		}
		if err := v.qos.acquire(ctx, cost); err != nil {
			return report, err
		}
		st := v.state.Load()
		done, err := v.scrubBatch(ctx, st, &report, skipped, s0, s1, crc)
		if err == nil && !done {
			// A backend predates or did not enable the CRC feature:
			// re-verify this batch — and every later one — byte-for-byte.
			crc = false
			_, err = v.scrubBatch(ctx, st, &report, skipped, s0, s1, false)
		}
		if err != nil {
			return report, err
		}
		if online {
			v.scrubPos.Store(int64(s1 % stripes))
		}
	}
	return report, v.scrubFinish(&report, skipped)
}
