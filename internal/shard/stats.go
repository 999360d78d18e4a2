package shard

import (
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/obs"
)

// shardStats holds the shard layer's own live instrumentation, updated
// inline by the data path and the rebuild surface. Everything else the
// shard reports — device counts, incompleteness, watermarks, the
// children's summed counters — is a function of the children's state
// and is computed when it is read (Health, Stats, a metrics scrape).
type shardStats struct {
	reads, writes         obs.Counter
	readBytes, writeBytes obs.Counter
	// boundarySplits counts requests that crossed at least one group
	// boundary and fanned out to more than one child.
	boundarySplits  obs.Counter
	rebuilds        obs.Counter
	rebuildErrors   obs.Counter
	migratedExtents obs.Counter
	rebuildActive   obs.Gauge
	readLat         *obs.Histogram
	writeLat        *obs.Histogram
}

func (st *shardStats) init() {
	st.readLat = obs.NewHistogram()
	st.writeLat = obs.NewHistogram()
}

// registerMetrics exposes the sm_shard_* namespace on reg. The
// children's sm_cluster_* series are registered separately with
// group="<id>" labels (see New/AddGroup).
func (s *ShardedVolume) registerMetrics(reg *obs.Registry) {
	st := &s.stats
	reg.RegisterCounter("sm_shard_reads_total",
		"Sharded volume reads.", &st.reads)
	reg.RegisterCounter("sm_shard_writes_total",
		"Sharded volume writes.", &st.writes)
	reg.RegisterCounter("sm_shard_read_bytes_total",
		"Bytes served by sharded reads.", &st.readBytes)
	reg.RegisterCounter("sm_shard_write_bytes_total",
		"Bytes accepted by sharded writes.", &st.writeBytes)
	reg.RegisterCounter("sm_shard_boundary_splits_total",
		"Requests that crossed a group boundary and fanned out to more than one group.", &st.boundarySplits)
	reg.RegisterCounter("sm_shard_rebuilds_total",
		"Completed rebuilds through the sharded surface.", &st.rebuilds)
	reg.RegisterCounter("sm_shard_rebuild_errors_total",
		"Rebuilds that failed and returned their device to replacement-pending.", &st.rebuildErrors)
	reg.RegisterCounter("sm_shard_migrated_extents_total",
		"Extents copied between groups by RemoveGroup migrations.", &st.migratedExtents)
	reg.RegisterGauge("sm_shard_rebuilds_active",
		"Rebuilds in flight across all groups.", &st.rebuildActive)
	reg.RegisterHistogram("sm_shard_read_duration_seconds",
		"ShardedVolume.ReadAt wall time.", st.readLat)
	reg.RegisterHistogram("sm_shard_write_duration_seconds",
		"ShardedVolume.WriteAt wall time.", st.writeLat)
	// The rollups are Health's fields, read from the children at scrape
	// time: a backend that died a moment ago shows without anyone
	// having asked the volume about it first.
	health := func(name, help string, pick func(Health) int64) {
		reg.RegisterGaugeFunc(name, help, func() int64 { return pick(s.Health()) })
	}
	health("sm_shard_groups",
		"Live stripe groups.", func(h Health) int64 { return int64(h.Groups) })
	health("sm_shard_extents",
		"Logical stripe slots in the extent table.", func(h Health) int64 { return h.SizeBytes / s.stripeB })
	health("sm_shard_devices_online",
		"Placement-table devices online.", func(h Health) int64 { return int64(h.Devices.Online) })
	health("sm_shard_devices_dead",
		"Placement-table devices dead (content lost or backend unreachable, no replacement).", func(h Health) int64 { return int64(h.Devices.Dead) })
	health("sm_shard_devices_replacement_pending",
		"Placement-table devices with a fresh backend awaiting rebuild.", func(h Health) int64 { return int64(h.Devices.ReplacementPending) })
	health("sm_shard_devices_rebuilding",
		"Placement-table devices with a rebuild in flight.", func(h Health) int64 { return int64(h.Devices.Rebuilding) })
	health("sm_shard_max_incompleteness_stripes",
		"Worst per-device incompleteness (stripes not yet recovered) across the fleet.", func(h Health) int64 { return h.Devices.MaxIncompleteness })
	health("sm_shard_degraded_reads",
		"Element reads served from a replica, summed across groups.", func(h Health) int64 { return h.DegradedReads })
	health("sm_shard_crc_read_errors",
		"End-to-end CRC read failures, summed across groups.", func(h Health) int64 { return h.CRCReadErrors })
	health("sm_shard_min_watermark_stripes",
		"Lowest rebuild watermark across every device — the volume's availability frontier.", func(h Health) int64 { return h.MinWatermarkStripes })
}

// GroupStats pairs a group id with its child volume's full snapshot.
type GroupStats struct {
	Group   int           `json:"group"`
	Cluster cluster.Stats `json:"cluster"`
}

// Stats is the cluster-wide machine-readable snapshot: shard-level
// routing counters, the placement table, and every group's full
// cluster.Stats. It marshals to JSON for smtool and shardrecon.
type Stats struct {
	Reads           int64 `json:"reads"`
	Writes          int64 `json:"writes"`
	ReadBytes       int64 `json:"read_bytes"`
	WriteBytes      int64 `json:"write_bytes"`
	BoundarySplits  int64 `json:"boundary_splits"`
	Rebuilds        int64 `json:"rebuilds"`
	RebuildErrors   int64 `json:"rebuild_errors"`
	RebuildActive   int64 `json:"rebuild_active"`
	MigratedExtents int64 `json:"migrated_extents"`

	Groups    int   `json:"groups"`
	Extents   int   `json:"extents"`
	SizeBytes int64 `json:"size_bytes"`

	// Aggregates over every group.
	DegradedReads       int64 `json:"degraded_reads"`
	CRCReadErrors       int64 `json:"crc_read_errors"`
	MinWatermarkStripes int64 `json:"min_watermark_stripes"`

	ReadLatency  obs.HistSnapshot `json:"read_latency"`
	WriteLatency obs.HistSnapshot `json:"write_latency"`

	Placement Snapshot     `json:"placement"`
	PerGroup  []GroupStats `json:"per_group"`
}

// Health is the light-weight rollup an operator polls: group and device
// counts plus the exposure aggregates, without histograms or per-
// backend detail.
type Health struct {
	Groups              int          `json:"groups"`
	SizeBytes           int64        `json:"size_bytes"`
	Devices             DeviceRollup `json:"devices"`
	DegradedReads       int64        `json:"degraded_reads"`
	CRCReadErrors       int64        `json:"crc_read_errors"`
	RebuildActive       int64        `json:"rebuild_active"`
	MinWatermarkStripes int64        `json:"min_watermark_stripes"`
}

// Stats returns the full snapshot.
func (s *ShardedVolume) Stats() Stats {
	gs := s.pinAll()
	defer unpinAll(gs)
	s.mu.RLock()
	extents := len(s.extents)
	s.mu.RUnlock()
	table := newPlacementTable(gs)

	out := Stats{
		Reads:           s.stats.reads.Load(),
		Writes:          s.stats.writes.Load(),
		ReadBytes:       s.stats.readBytes.Load(),
		WriteBytes:      s.stats.writeBytes.Load(),
		BoundarySplits:  s.stats.boundarySplits.Load(),
		Rebuilds:        s.stats.rebuilds.Load(),
		RebuildErrors:   s.stats.rebuildErrors.Load(),
		RebuildActive:   s.stats.rebuildActive.Load(),
		MigratedExtents: s.stats.migratedExtents.Load(),

		Groups:    len(gs),
		Extents:   extents,
		SizeBytes: int64(extents) * s.stripeB,

		MinWatermarkStripes: table.minWatermark(),

		ReadLatency:  s.stats.readLat.Snapshot(),
		WriteLatency: s.stats.writeLat.Snapshot(),

		Placement: table.Snapshot(),
	}
	for _, g := range gs {
		cs := g.vol.Stats()
		out.DegradedReads += cs.DegradedReads
		out.CRCReadErrors += cs.CRCReadErrors
		out.PerGroup = append(out.PerGroup, GroupStats{Group: g.id, Cluster: cs})
	}
	return out
}

// Health returns the light rollup, read from the children as of now.
func (s *ShardedVolume) Health() Health {
	gs := s.pinAll()
	defer unpinAll(gs)
	table := newPlacementTable(gs)
	h := Health{
		Groups:              len(gs),
		SizeBytes:           s.Size(),
		Devices:             table.Rollup(),
		RebuildActive:       s.stats.rebuildActive.Load(),
		MinWatermarkStripes: table.minWatermark(),
	}
	for _, g := range gs {
		ch := g.vol.Health()
		h.DegradedReads += ch.DegradedReads
		h.CRCReadErrors += ch.CRCReadErrors
	}
	return h
}
