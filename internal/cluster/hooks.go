package cluster

import (
	"encoding/json"
	"fmt"

	"shiftedmirror/internal/raid"
)

// This file is the Volume's embedding surface: what a composing layer
// (internal/shard's multi-group volume) reads to route I/O, report
// device state and schedule rebuilds — without reaching into Volume
// internals or paying for a full Stats snapshot per decision.

// ElementSize returns the element (striping unit) size in bytes.
func (v *Volume) ElementSize() int64 { return v.elementSize }

// Stripes returns the stripe count per array.
func (v *Volume) Stripes() int { return v.stripes }

// N returns the data-disk count n of the n×n mirror geometry.
func (v *Volume) N() int { return v.n }

// DiskState is one disk's position in the failure/repair cycle, modeled
// on the per-device replica-table state NBS keeps for mirrored disks:
//
//	online ──(content lost / backend unreachable)──▶ dead
//	dead ──(fresh backend attached)──▶ replacement-pending
//	replacement-pending ──(RebuildDisk starts)──▶ rebuilding
//	rebuilding ──(rebuild completes)──▶ online
//	rebuilding ──(rebuild fails or is cancelled)──▶ replacement-pending
//
// It is never stored: diskState derives it from the volume's per-slot
// bits every time it is asked for.
type DiskState int

const (
	// DiskOnline: serving reads and writes, fully rebuilt.
	DiskOnline DiskState = iota
	// DiskDead: content lost or backend unreachable; the volume serves
	// the disk's data from replicas. Nothing to rebuild onto yet.
	DiskDead
	// DiskReplacementPending: content lost, a backend to rebuild onto is
	// in place (attached by ReplaceBackend, or tried by an earlier
	// RebuildDisk); waiting for a rebuild.
	DiskReplacementPending
	// DiskRebuilding: a RebuildDisk is copying data onto the backend
	// right now.
	DiskRebuilding
)

var diskStateNames = [...]string{"online", "dead", "replacement-pending", "rebuilding"}

func (s DiskState) String() string {
	if s < 0 || int(s) >= len(diskStateNames) {
		return fmt.Sprintf("DiskState(%d)", int(s))
	}
	return diskStateNames[s]
}

// MarshalJSON renders the state by name, so dumps read as "rebuilding"
// rather than an enum ordinal.
func (s DiskState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the name form written by MarshalJSON.
func (s *DiskState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range diskStateNames {
		if n == name {
			*s = DiskState(i)
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown disk state %q", name)
}

// diskState is the one place a disk's state is decided.
func diskState(failed, replacement, rebuilding, backendDead bool) DiskState {
	switch {
	case rebuilding:
		return DiskRebuilding
	case failed && replacement:
		return DiskReplacementPending
	case failed || backendDead:
		return DiskDead
	default:
		return DiskOnline
	}
}

// DiskStatus is one disk's entry in a Disks snapshot.
type DiskStatus struct {
	ID    raid.DiskID
	Addr  string
	State DiskState
	// Replacement mirrors NBS's IsReplacement: true from the moment a
	// failed disk gets a backend to rebuild onto until its rebuild
	// completes — the window in which the backend's content cannot be
	// trusted beyond the watermark.
	Replacement bool
	// WatermarkStripes is the disk's availability frontier: Stripes when
	// its content is whole, the rebuild watermark while failed. Stripes
	// minus the watermark is the disk's incompleteness.
	WatermarkStripes int64
}

// Disks returns every disk's status in arch.Disks() order. It is one
// load of the volume's state: the entries are mutually consistent — no
// management op or rebuild slice is half-applied across them — and the
// call waits for nothing.
func (v *Volume) Disks() []DiskStatus {
	st := v.state.Load()
	out := make([]DiskStatus, len(v.ids))
	for slot, id := range v.ids {
		s := &st.slots[slot]
		out[slot] = DiskStatus{
			ID:               id,
			Addr:             s.be.address(),
			State:            diskState(s.failed, s.replacement, s.rebuilding, s.be.isDead()),
			Replacement:      s.replacement,
			WatermarkStripes: st.watermark(slot, v.stripes),
		}
	}
	return out
}
