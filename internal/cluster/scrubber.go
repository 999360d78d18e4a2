package cluster

import "context"

// ScrubOnline is the background-friendly form of Scrub: the same full
// verification pass (checksum fast path, byte fallback, degraded
// verdict), restructured for a volume that is actively serving.
//
//   - Incremental locking: each stripe batch is verified under its own
//     short read-lock hold, with user reads, writes, and rebuild slices
//     interleaving between batches — Scrub's whole-pass RLock would
//     starve writers for the duration of the sweep.
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
//
// Consistency caveat inherent to batch-local verification: a write
// landing between two batches is either entirely before or entirely
// after each batch's gather (writes take the exclusive lock), so
// replica sets never tear — but the pass as a whole is not a snapshot,
// the same guarantee Scrub already waives for content written after
// its gather.
func (v *Volume) ScrubOnline(ctx context.Context) (ScrubReport, error) {
	var report ScrubReport
	v.mu.RLock()
	batch := v.cfg.RebuildBatch
	stripes := v.stripes
	crcMode := v.cfg.WireCRC
	start := v.scrubPos
	v.mu.RUnlock()

	numBatches := (stripes + batch - 1) / batch
	firstBatch := (start / batch) % numBatches
	skipped := make([]bool, len(v.ids))
	for k := 0; k < numBatches; k++ {
		b := (firstBatch + k) % numBatches
		s0 := b * batch
		s1 := s0 + batch
		if s1 > stripes {
			s1 = stripes
		}
		if err := v.qos.acquire(ctx, s1-s0); err != nil {
			return report, err
		}
		if err := func() error {
			v.mu.RLock()
			defer v.mu.RUnlock()
			if err := ctx.Err(); err != nil {
				return err
			}
			if crcMode {
				done, err := v.scrubBatchCRC(ctx, &report, skipped, s0, s1)
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				// A backend without the CRC feature flips the rest of
				// the pass to byte comparison, like Scrub.
				crcMode = false
			}
			return v.scrubBatchBytes(ctx, &report, skipped, s0, s1)
		}(); err != nil {
			return report, err
		}
		next := s1
		if next >= stripes {
			next = 0
		}
		v.mu.Lock()
		v.scrubPos = next
		v.mu.Unlock()
		v.stats.scrubCursor.Set(int64(next))
	}
	return report, v.scrubFinish(&report, skipped)
}
