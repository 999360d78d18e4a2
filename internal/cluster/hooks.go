package cluster

import (
	"shiftedmirror/internal/raid"
)

// This file is the Volume's embedding surface: the exported read-only
// hooks a composing layer (internal/shard's multi-group volume) needs to
// route I/O, keep a placement table in sync, and schedule rebuilds —
// without reaching into Volume internals or paying for a full Stats
// snapshot per decision.

// ElementSize returns the element (striping unit) size in bytes.
func (v *Volume) ElementSize() int64 { return v.elementSize }

// Stripes returns the stripe count per array.
func (v *Volume) Stripes() int { return v.stripes }

// N returns the data-disk count n of the n×n mirror geometry.
func (v *Volume) N() int { return v.n }

// BackendAddr returns the address currently serving a disk slot.
func (v *Volume) BackendAddr(id raid.DiskID) (string, bool) {
	slot, ok := v.slot(id)
	if !ok {
		return "", false
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.addrs[slot], true
}

// IsFailed reports whether a disk's content is currently declared lost.
func (v *Volume) IsFailed(id raid.DiskID) bool {
	slot, ok := v.slot(id)
	if !ok {
		return false
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.failed[slot]
}

// IsRebuilding reports whether the disk has a RebuildDisk in flight.
func (v *Volume) IsRebuilding(id raid.DiskID) bool {
	slot, ok := v.slot(id)
	if !ok {
		return false
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.rebuilding[slot]
}

// BackendDead reports the pool state machine's verdict for a disk's
// backend: true while it is marked dead with the probe window closed.
func (v *Volume) BackendDead(id raid.DiskID) bool {
	slot, ok := v.slot(id)
	if !ok {
		return false
	}
	v.mu.RLock()
	p := v.pools[slot]
	v.mu.RUnlock()
	return p.isDead()
}

// Watermark returns a disk's availability frontier in stripes: Stripes
// when healthy, the rebuild watermark while failed. Stripes minus the
// watermark is the disk's incompleteness — the per-disk stat a placement
// table tracks to prioritize rebuilds.
func (v *Volume) Watermark(id raid.DiskID) int64 {
	slot, ok := v.slot(id)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if ok && v.failed[slot] {
		return int64(v.progress[slot])
	}
	return int64(v.stripes)
}
