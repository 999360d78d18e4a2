package cluster

import (
	"shiftedmirror/internal/obs"
)

// BackendStats is one disk slot's corner of a Stats snapshot. The
// counters are per *slot*, not per machine: ReplaceBackend carries them
// over, so a disk's history spans backend swaps.
type BackendStats struct {
	Disk string `json:"disk"`
	Addr string `json:"addr"`
	// Dead is the pool state machine's verdict (network unreachable);
	// Failed is the cluster-level disk state (content lost).
	Dead   bool `json:"dead"`
	Failed bool `json:"failed"`
	// Network-level service counters (see poolStats).
	Requests int64 `json:"requests"`
	Retries  int64 `json:"retries"`
	Dials    int64 `json:"dials"`
	Errors   int64 `json:"errors"`
	Poisoned int64 `json:"poisoned"`
	Deaths   int64 `json:"deaths"`
	Revivals int64 `json:"revivals"`
	// RebuildReadElements counts data elements this backend served as a
	// source for other disks' rebuilds — the wire-level measurement of
	// the paper's Properties 1/2 (shifted arrangements spread a rebuild
	// one element-column per surviving backend, ±0; traditional
	// arrangements drain the single twin).
	RebuildReadElements int64 `json:"rebuild_read_elements"`
	// WatermarkStripes is the disk's availability frontier: Stripes when
	// healthy, the rebuild watermark while failed.
	WatermarkStripes int64 `json:"watermark_stripes"`
}

// RebuildStats summarizes reconstruction activity.
type RebuildStats struct {
	Active    int64   `json:"active"` // rebuilds in flight right now
	Completed int64   `json:"completed"`
	Stripes   int64   `json:"stripes"` // stripes recovered (including re-recovered after rollback)
	Bytes     int64   `json:"bytes"`
	Seconds   float64 `json:"seconds"`
	// MBps and StripesPerSec are cumulative rates over every completed
	// rebuild (0 before the first).
	MBps          float64          `json:"mbps"`
	StripesPerSec float64          `json:"stripes_per_sec"`
	SliceLatency  obs.HistSnapshot `json:"slice_latency"`
}

// HedgeStats summarizes tail-latency hedging activity: attempts are
// hedge timers that fired (the primary exceeded the adaptive delay),
// wins are reads served by the backup copy, losses are primaries that
// recovered before their backup, and cancels are loser requests
// cancelled mid-flight.
type HedgeStats struct {
	Attempts int64 `json:"attempts"`
	Wins     int64 `json:"wins"`
	Losses   int64 `json:"losses"`
	Cancels  int64 `json:"cancels"`
	// FetchLatency is the per-backend vectored-read round-trip histogram
	// whose quantile drives the adaptive hedge delay.
	FetchLatency obs.HistSnapshot `json:"fetch_latency"`
}

// QoSStats summarizes the rebuild QoS controller (WithRebuildQoS).
type QoSStats struct {
	// Enabled reports whether the controller exists; every other field
	// is zero when it does not.
	Enabled bool `json:"enabled"`
	// SLO is the user-read p99 target in seconds.
	SLO float64 `json:"slo_seconds"`
	// RateStripesPerSec is the token bucket's current refill rate.
	RateStripesPerSec float64 `json:"rate_stripes_per_sec"`
	// HeadroomMicros is the signed gap between the SLO and the last
	// feedback window's user fetch p99 (negative while violated).
	HeadroomMicros int64 `json:"headroom_micros"`
	// Throttles counts rate halvings (SLO violations observed); Boosts
	// counts rate raises under headroom.
	Throttles int64 `json:"throttles"`
	Boosts    int64 `json:"boosts"`
	// WaitSeconds is the cumulative time rebuild and scrub spent parked
	// waiting for tokens.
	WaitSeconds float64 `json:"wait_seconds"`
}

// PipelineStats summarizes the pipelined wire mode (Config.Pipeline)
// across every backend connection of the volume. Enabled mirrors the
// config switch; the counters stay zero when pipelining is off or every
// backend fell back to the synchronous path.
type PipelineStats struct {
	Enabled bool `json:"enabled"`
	// InFlight is the current window occupancy summed over all
	// pipelined connections (submitted-but-uncompleted ops).
	InFlight int64 `json:"in_flight"`
	// Submitted counts ops that entered a pipelined connection;
	// Abandoned the subset whose caller cancelled mid-flight (their
	// responses were drained off the stream without touching caller
	// memory).
	Submitted int64 `json:"submitted"`
	Abandoned int64 `json:"abandoned"`
	// Frames counts request frames written and Writevs the vectored
	// writes that carried them; Frames/Writevs is the measured
	// syscall-coalescing factor.
	Frames  int64 `json:"frames"`
	Writevs int64 `json:"writevs"`
	// QueueWait is the time ops spent queued before the writer
	// goroutine picked them up for a coalesced writev.
	QueueWait obs.HistSnapshot `json:"queue_wait"`
}

// ScrubStats summarizes consistency-scrub coverage.
type ScrubStats struct {
	Runs             int64 `json:"runs"`
	ElementsCompared int64 `json:"elements_compared"`
	// ChecksumCompared is the subset of ElementsCompared verified via
	// the WireCRC OpCrcV fast path (4 bytes per element on the wire)
	// instead of byte-for-byte content transfer.
	ChecksumCompared int64 `json:"checksum_compared"`
	SkippedDisks     int64 `json:"skipped_disks"`
}

// Stats is a machine-readable snapshot of everything the volume
// observes about itself: logical I/O, degraded serving, reconstruction
// progress and throughput, scrub coverage, and per-backend network
// state. It marshals to JSON for reports (examples/clusterrecon) and
// CI assertions.
type Stats struct {
	ElementsRead    int64 `json:"elements_read"`
	ElementsWritten int64 `json:"elements_written"`
	DegradedReads   int64 `json:"degraded_reads"`
	ParityReads     int64 `json:"parity_reads"` // see Health.ParityReads
	Failovers       int64 `json:"failovers"`
	AutoFailed      int64 `json:"auto_failed"`

	// CRCReadErrors counts vectored reads whose payload failed its
	// CRC-32C at the client (WireCRC mode): end-to-end corruption
	// detections, each of which failed over to a replica.
	CRCReadErrors int64 `json:"crc_read_errors"`

	// WriteBatches counts the scatter exchanges issued by the write
	// fan-out (user writes and rebuild write-back) — one per backend per
	// write, which is one OpWriteV frame whenever the backend's share
	// fits a frame; WriteBatchElements the element-copy ops those
	// exchanges carried. Their ratio is the measured batching factor —
	// elements per wire round trip.
	WriteBatches       int64 `json:"write_batches"`
	WriteBatchElements int64 `json:"write_batch_elements"`

	ReadLatency  obs.HistSnapshot `json:"read_latency"`
	WriteLatency obs.HistSnapshot `json:"write_latency"`

	Rebuild  RebuildStats  `json:"rebuild"`
	Scrub    ScrubStats    `json:"scrub"`
	Hedge    HedgeStats    `json:"hedge"`
	QoS      QoSStats      `json:"qos"`
	Pipeline PipelineStats `json:"pipeline"`

	// Backends is sorted by role then index, matching arch.Disks().
	Backends []BackendStats `json:"backends"`
}

// Stats returns a point-in-time snapshot of the volume's counters and
// histograms. It is safe to call concurrently with the data path; the
// numbers are as consistent as independent atomic loads can be.
func (v *Volume) Stats() Stats {
	st := v.state.Load()
	s := Stats{
		ElementsRead:    v.stats.elementsRead.Load(),
		ElementsWritten: v.stats.elementsWritten.Load(),
		DegradedReads:   v.stats.degradedReads.Load(),
		ParityReads:     v.stats.parityReads.Load(),
		Failovers:       v.stats.failovers.Load(),
		AutoFailed:      v.stats.autoFailed.Load(),
		CRCReadErrors:   v.stats.crcReadErrors.Load(),

		WriteBatches:       v.stats.writeBatches.Load(),
		WriteBatchElements: v.stats.writeBatchElements.Load(),

		ReadLatency:  v.stats.readLat.Snapshot(),
		WriteLatency: v.stats.writeLat.Snapshot(),
		Rebuild: RebuildStats{
			Active:       v.stats.rebuildActive.Load(),
			Completed:    v.stats.rebuilds.Load(),
			Stripes:      v.stats.rebuildStripes.Load(),
			Bytes:        v.stats.rebuildBytes.Load(),
			Seconds:      float64(v.stats.rebuildNanos.Load()) / 1e9,
			SliceLatency: v.stats.sliceLat.Snapshot(),
		},
		Scrub: ScrubStats{
			Runs:             v.stats.scrubs.Load(),
			ElementsCompared: v.stats.scrubElements.Load(),
			ChecksumCompared: v.stats.scrubCRCElements.Load(),
			SkippedDisks:     v.stats.scrubSkipped.Load(),
		},
		Hedge: HedgeStats{
			Attempts:     v.stats.hedgeAttempts.Load(),
			Wins:         v.stats.hedgeWins.Load(),
			Losses:       v.stats.hedgeLosses.Load(),
			Cancels:      v.stats.hedgeCancels.Load(),
			FetchLatency: v.stats.fetchLat.Snapshot(),
		},
		Pipeline: PipelineStats{
			Enabled:   v.cfg.Pipeline,
			InFlight:  v.stats.pipe.InFlight.Load(),
			Submitted: v.stats.pipe.Submitted.Load(),
			Abandoned: v.stats.pipe.Abandoned.Load(),
			Frames:    v.stats.pipe.Frames.Load(),
			Writevs:   v.stats.pipe.Writevs.Load(),
			QueueWait: v.stats.pipe.QueueWait.Snapshot(),
		},
	}
	if s.Rebuild.Seconds > 0 {
		s.Rebuild.MBps = float64(s.Rebuild.Bytes) / 1e6 / s.Rebuild.Seconds
		s.Rebuild.StripesPerSec = float64(s.Rebuild.Stripes) / s.Rebuild.Seconds
	}
	if v.qos != nil {
		s.QoS = QoSStats{
			Enabled:           true,
			SLO:               v.cfg.RebuildQoSSLO.Seconds(),
			RateStripesPerSec: v.qos.snapshotRate(),
			HeadroomMicros:    v.stats.qosHeadroom.Load(),
			Throttles:         v.stats.qosThrottles.Load(),
			Boosts:            v.stats.qosBoosts.Load(),
			WaitSeconds:       float64(v.stats.qosWaitNanos.Load()) / 1e9,
		}
	}
	for slot, id := range v.ids {
		ds := &v.stats.perDisk[slot]
		be := st.slots[slot].be
		s.Backends = append(s.Backends, BackendStats{
			Disk:                id.String(),
			Addr:                be.address(),
			Dead:                be.isDead(),
			Failed:              st.slots[slot].failed,
			Requests:            ds.pool.requests.Load(),
			Retries:             ds.pool.retries.Load(),
			Dials:               ds.pool.dials.Load(),
			Errors:              ds.pool.errors.Load(),
			Poisoned:            ds.pool.poisoned.Load(),
			Deaths:              ds.pool.deaths.Load(),
			Revivals:            ds.pool.revivals.Load(),
			RebuildReadElements: ds.rebuildReads.Load(),
			WatermarkStripes:    st.watermark(slot, v.stripes),
		})
	}
	return s
}

// ResetRebuildReads zeroes every backend's rebuild-read counter, so a
// caller can measure one rebuild's source distribution in isolation
// (examples/clusterrecon does this per arrangement run).
func (v *Volume) ResetRebuildReads() {
	for i := range v.stats.perDisk {
		v.stats.perDisk[i].rebuildReads.Reset()
	}
}

// RegisterMetrics exposes the volume's live counters, gauges, and
// histograms on reg under the sm_cluster_* namespace, per-backend
// series labeled disk="data[0]" etc. Call once per volume per registry
// at setup time; exposition then reads the same atomics the data path
// updates, and computes the per-disk watermarks and the scrub cursor
// from the volume's state when it is scraped.
//
// The optional labels (key, value pairs) are appended to every series,
// so several volumes can share one registry as long as the extra labels
// tell them apart — internal/shard registers each stripe group with
// group="0", group="1", … this way.
func (v *Volume) RegisterMetrics(reg *obs.Registry, labels ...string) {
	st := &v.stats
	counter := func(name, help string, c *obs.Counter, kv ...string) {
		reg.RegisterCounter(name, help, c, append(kv, labels...)...)
	}
	gauge := func(name, help string, g *obs.Gauge, kv ...string) {
		reg.RegisterGauge(name, help, g, append(kv, labels...)...)
	}
	gaugeFunc := func(name, help string, fn func() int64, kv ...string) {
		reg.RegisterGaugeFunc(name, help, fn, append(kv, labels...)...)
	}
	histogram := func(name, help string, h *obs.Histogram, kv ...string) {
		reg.RegisterHistogram(name, help, h, append(kv, labels...)...)
	}
	counter("sm_cluster_elements_read_total",
		"Logical data elements read.", &st.elementsRead)
	counter("sm_cluster_elements_written_total",
		"Logical data elements written.", &st.elementsWritten)
	counter("sm_cluster_degraded_reads_total",
		"Element reads served from a replica because the data disk was failed or unreachable.", &st.degradedReads)
	counter("sm_cluster_parity_reads_total",
		"Elements served as the XOR of their row's other data and its parity because no copy could be read.", &st.parityReads)
	counter("sm_cluster_failovers_total",
		"Element fetches re-routed to another backend after an I/O failure.", &st.failovers)
	counter("sm_cluster_auto_failed_total",
		"Disks auto-failed by the write path after their backend stopped accepting writes.", &st.autoFailed)
	counter("sm_cluster_write_batches_total",
		"Scatter exchanges issued by the write fan-out (user writes and rebuild write-back): one per backend per write, one OpWriteV frame each when the share fits a frame.", &st.writeBatches)
	counter("sm_cluster_write_batch_elements",
		"Element-copy ops carried by those exchanges; divided by sm_cluster_write_batches_total this is elements per wire round trip.", &st.writeBatchElements)
	histogram("sm_cluster_read_duration_seconds",
		"Volume.ReadAt wall time.", st.readLat)
	histogram("sm_cluster_write_duration_seconds",
		"Volume.WriteAt wall time.", st.writeLat)
	gauge("sm_cluster_rebuilds_active",
		"Rebuilds in flight.", &st.rebuildActive)
	counter("sm_cluster_rebuilds_total",
		"Completed RebuildDisk runs.", &st.rebuilds)
	counter("sm_cluster_rebuild_bytes_total",
		"Bytes written to replacement backends by rebuilds.", &st.rebuildBytes)
	counter("sm_cluster_rebuild_stripes_total",
		"Stripes recovered by rebuilds (including re-recovery after watermark rollback).", &st.rebuildStripes)
	counter("sm_cluster_rebuild_nanoseconds_total",
		"Wall time spent inside completed rebuilds, in nanoseconds.", &st.rebuildNanos)
	histogram("sm_cluster_rebuild_slice_duration_seconds",
		"Per-slice rebuild wall time, from opening the slice's write fence to publishing its watermark (reads never wait on a slice; writes to the rebuilding disk's copies in its stripes do).", st.sliceLat)
	counter("sm_cluster_scrubs_total",
		"Completed scrub passes.", &st.scrubs)
	counter("sm_cluster_scrub_elements_compared_total",
		"Replica elements compared against their data element across all scrubs.", &st.scrubElements)
	counter("sm_cluster_scrub_checksum_elements_total",
		"Replica elements verified via the OpCrcV checksum fast path across all scrubs.", &st.scrubCRCElements)
	counter("sm_cluster_scrub_skipped_disks_total",
		"Disks skipped (failed or unreachable) across all scrubs.", &st.scrubSkipped)
	counter("sm_cluster_crc_read_errors_total",
		"Vectored reads whose payload failed its CRC-32C at the client (end-to-end corruption detections).", &st.crcReadErrors)
	counter("sm_cluster_hedge_attempts_total",
		"Hedge timers that fired (primary exceeded the adaptive delay).", &st.hedgeAttempts)
	counter("sm_cluster_hedge_wins_total",
		"Hedged reads served by the backup copy.", &st.hedgeWins)
	counter("sm_cluster_hedge_losses_total",
		"Hedged reads where the primary recovered before the backup.", &st.hedgeLosses)
	counter("sm_cluster_hedge_cancels_total",
		"Hedge loser requests cancelled mid-flight.", &st.hedgeCancels)
	histogram("sm_cluster_fetch_duration_seconds",
		"Per-backend user/RMW vectored-read round trips (source of the adaptive hedge delay and the rebuild QoS feedback; rebuild gathers are excluded).", st.fetchLat)
	gauge("sm_cluster_qos_rebuild_rate_stripes_per_sec",
		"Current QoS token-bucket rate for rebuild and online scrub (0 until the controller is enabled).", &st.qosRate)
	gauge("sm_cluster_qos_slo_headroom_microseconds",
		"Signed gap between the rebuild QoS SLO and the last window's user fetch p99 (negative while violated).", &st.qosHeadroom)
	counter("sm_cluster_qos_throttle_events_total",
		"QoS rate halvings triggered by user-read p99 exceeding the SLO.", &st.qosThrottles)
	counter("sm_cluster_qos_boost_events_total",
		"QoS rate raises granted while the SLO had headroom.", &st.qosBoosts)
	counter("sm_cluster_qos_wait_nanoseconds_total",
		"Time rebuild and online scrub spent parked waiting for QoS tokens, in nanoseconds.", &st.qosWaitNanos)
	gaugeFunc("sm_cluster_scrub_cursor_stripes",
		"Online scrubber's resumable position.", v.scrubPos.Load)
	gauge("sm_cluster_pipeline_in_flight",
		"Current pipelined-window occupancy summed over all backend connections (submitted-but-uncompleted ops).", &st.pipe.InFlight)
	counter("sm_cluster_pipeline_submitted_total",
		"Operations submitted to pipelined connections.", &st.pipe.Submitted)
	counter("sm_cluster_pipeline_abandoned_total",
		"Pipelined operations whose caller cancelled mid-flight (responses drained off the stream).", &st.pipe.Abandoned)
	counter("sm_cluster_pipeline_frames_total",
		"Request frames written on pipelined connections.", &st.pipe.Frames)
	counter("sm_cluster_pipeline_writevs_total",
		"Vectored writes that carried pipelined frames; frames divided by writevs is the coalescing factor.", &st.pipe.Writevs)
	histogram("sm_cluster_pipeline_queue_wait_seconds",
		"Time pipelined ops spent queued before the writer goroutine picked them up for a coalesced writev.", st.pipe.QueueWait)
	for slot, id := range v.ids {
		ds := &st.perDisk[slot]
		label := id.String()
		counter("sm_cluster_backend_requests_total",
			"Operations submitted to the backend.", &ds.pool.requests, "disk", label)
		counter("sm_cluster_backend_retries_total",
			"Extra attempts after transport failures.", &ds.pool.retries, "disk", label)
		counter("sm_cluster_backend_dials_total",
			"Connections opened to the backend.", &ds.pool.dials, "disk", label)
		counter("sm_cluster_backend_errors_total",
			"Operations that ultimately failed.", &ds.pool.errors, "disk", label)
		counter("sm_cluster_backend_poisoned_total",
			"Connections poisoned and closed by transport errors.", &ds.pool.poisoned, "disk", label)
		counter("sm_cluster_backend_deaths_total",
			"Alive-to-dead pool state transitions.", &ds.pool.deaths, "disk", label)
		counter("sm_cluster_backend_revivals_total",
			"Dead-to-alive pool state transitions (successful probes).", &ds.pool.revivals, "disk", label)
		gauge("sm_cluster_backend_dead",
			"1 while the backend is marked dead.", &ds.pool.deadGauge, "disk", label)
		counter("sm_cluster_rebuild_read_elements_total",
			"Elements this backend served as a source for other disks' rebuilds.", &ds.rebuildReads, "disk", label)
		gaugeFunc("sm_cluster_rebuild_watermark_stripes",
			"Disk availability frontier: Stripes when healthy, rebuild watermark while failed.", func() int64 {
				return v.state.Load().watermark(slot, v.stripes)
			}, "disk", label)
	}
}
