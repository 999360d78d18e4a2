package shiftedmirror

import (
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/shard"
)

// Sharded multi-group volume: one logical address space striped across
// many shifted-mirror groups.
// A rebuild stays confined to its group — the other groups' backends
// serve zero rebuild traffic — while capacity and aggregate bandwidth
// scale with the group count instead of being capped at n disks. See
// internal/shard for the full API.
type (
	// ShardedVolume is the multi-group volume (see NewShardedVolume). It
	// implements the same context-first ReadAtCtx/WriteAtCtx/RebuildDisk/
	// Scrub surface as ClusterVolume, with disk operations keyed by group
	// id, plus online AddGroup/RemoveGroup and a placement-driven rebuild
	// scheduler (RebuildPending).
	ShardedVolume = shard.ShardedVolume
	// ShardConfig is the struct-style sharded-volume configuration; new
	// code should prefer Options on NewShardedVolume.
	ShardConfig = shard.Config
	// ShardStats is ShardedVolume.Stats()'s JSON-marshalable snapshot:
	// shard routing counters, the placement table, and every group's
	// full ClusterStats.
	ShardStats = shard.Stats
	// ShardHealth is ShardedVolume.Health()'s light rollup.
	ShardHealth = shard.Health
	// ShardScrubReport is the merged coverage of a sharded Scrub pass.
	ShardScrubReport = shard.ScrubReport
	// ShardExtent maps one logical stripe slot to its (group, stripe)
	// home.
	ShardExtent = shard.Extent

	// PlacementTable is ShardedVolume.Placement()'s view of the fleet at
	// one instant: device→group assignment and per-device state (online /
	// dead / replacement-pending / rebuilding) with per-disk
	// incompleteness, read from the groups when asked for; it marshals to
	// JSON for smtool inspection.
	PlacementTable = shard.PlacementTable
	// PlacementDevice is one backend slot of the placement table.
	PlacementDevice = shard.Device
	// PlacementSnapshot is the table's JSON form: devices plus rollup.
	PlacementSnapshot = shard.Snapshot
	// DeviceState is a placement-table device's lifecycle state.
	DeviceState = shard.DeviceState
	// DeviceRollup aggregates device counts per state across the fleet.
	DeviceRollup = shard.DeviceRollup

	// DeviceSpec describes one candidate backend for the placement
	// planner: address, read bandwidth (the WithReadRate throttle it is
	// served under), and capacity.
	DeviceSpec = shard.DeviceSpec
	// PlacementPolicy selects how PlanShardGroups deals devices into
	// groups (PlaceTier or PlaceBalance).
	PlacementPolicy = shard.PlacementPolicy
)

// Placement-table device states.
const (
	DeviceOnline             = shard.DeviceOnline
	DeviceDead               = shard.DeviceDead
	DeviceReplacementPending = shard.DeviceReplacementPending
	DeviceRebuilding         = shard.DeviceRebuilding
)

// Placement policies for heterogeneous fleets.
const (
	// PlaceTier groups devices of similar read rate together, so a fast
	// (SSD) group is never gated by a slow (HDD) peer — within one
	// shifted-mirror group every disk participates in every rebuild, so
	// a group runs at its slowest member's speed.
	PlaceTier = shard.PlaceTier
	// PlaceBalance deals devices so each group gets near-equal aggregate
	// bandwidth.
	PlaceBalance = shard.PlaceBalance
)

// Shard-level sentinels (errors.Is-able).
var (
	// ErrNoGroup is returned for an unknown group id.
	ErrNoGroup = shard.ErrNoGroup
	// ErrLastGroup is returned when RemoveGroup would leave zero groups.
	ErrLastGroup = shard.ErrLastGroup
	// ErrGroupDegraded is returned when RemoveGroup targets a group with
	// non-online devices.
	ErrGroupDegraded = shard.ErrGroupDegraded
	// ErrMigration is returned when a topology change collides with an
	// extent migration in flight or pending — a cancelled RemoveGroup
	// persists its plan, and only retrying that same removal is allowed
	// until it completes.
	ErrMigration = shard.ErrMigration
)

// WithRebuildConcurrency bounds how many groups the sharded rebuild
// scheduler (ShardedVolume.RebuildPending) drives at once; default 2.
// Sharded-volume side only.
func WithRebuildConcurrency(groups int) Option {
	return Option{shard: func(c *shard.Config) { c.MaxConcurrentRebuilds = groups }}
}

// NewShardedVolume builds a sharded volume over a mirror-family
// architecture with one backend address map per group; every group gets
// the same architecture and options. Cluster-side options apply to each
// group's child volume; WithMetrics registers the shard's sm_shard_*
// series plus each group's sm_cluster_* series labeled group="<id>".
func NewShardedVolume(arch *Mirror, groups []map[DiskID]string, opts ...Option) (*ShardedVolume, error) {
	var copts []cluster.Option
	var cfg shard.Config
	for _, o := range opts {
		if o.shard != nil {
			o.shard(&cfg)
		}
		if o.metrics != nil {
			// Route the registry through the shard layer, which labels
			// each group's series — the plain cluster option would make
			// the children collide on unlabeled names.
			cfg.Metrics = o.metrics
			continue
		}
		if o.cluster != nil {
			copts = append(copts, o.cluster)
		}
	}
	return shard.Open(arch, groups, cfg, copts...)
}

// PlanShardGroups assigns a heterogeneous device fleet to groups by the
// chosen policy, rejecting devices whose capacity cannot hold one disk
// image. Devices beyond groups×groupSize are left as the spare pool.
func PlanShardGroups(devices []DeviceSpec, groups, groupSize int, diskSize int64, policy PlacementPolicy) ([][]DeviceSpec, error) {
	return shard.PlanGroups(devices, groups, groupSize, diskSize, policy)
}
