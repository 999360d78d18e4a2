package shard

import (
	"encoding/json"
	"sort"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/raid"
)

// DeviceState is one device slot's position in the failure/repair
// cycle. It is the child volume's own per-disk state (see
// cluster.DiskState for the transitions): the shard layer keeps no copy,
// it reads the children. The states are what the rebuild scheduler keys
// on: only replacement-pending devices are eligible (a dead device has
// nowhere to rebuild to), and a group's priority grows with its count
// of non-online devices and their incompleteness.
type DeviceState = cluster.DiskState

// Device states.
const (
	DeviceOnline             = cluster.DiskOnline
	DeviceDead               = cluster.DiskDead
	DeviceReplacementPending = cluster.DiskReplacementPending
	DeviceRebuilding         = cluster.DiskRebuilding
)

// Device is one backend slot of the placement table: which group and
// disk slot it serves, where it lives, its state, and how incomplete
// its content is (stripes not yet recovered — 0 for a healthy disk).
type Device struct {
	Group int         `json:"group"`
	Disk  string      `json:"disk"` // raid.DiskID string form, e.g. "data[0]"
	Addr  string      `json:"addr"`
	State DeviceState `json:"state"`
	// Replacement mirrors NBS's IsReplacement: true from the moment a
	// failed slot has a backend to rebuild onto until its rebuild
	// completes — the window in which the slot's content cannot be
	// trusted beyond the watermark.
	Replacement bool `json:"replacement,omitempty"`
	// IncompleteStripes is stripes-not-yet-rebuilt: 0 when online,
	// Stripes right after a failure, shrinking as the watermark advances.
	IncompleteStripes int64 `json:"incomplete_stripes"`
}

// DeviceRollup aggregates the table the way NBS's
// TMirroredDiskDevicesStat does: slot counts per state plus the worst
// incompleteness, so one glance tells how exposed the volume is.
type DeviceRollup struct {
	Online             int   `json:"online"`
	Dead               int   `json:"dead"`
	ReplacementPending int   `json:"replacement_pending"`
	Rebuilding         int   `json:"rebuilding"`
	Replacements       int   `json:"replacements"`
	MaxIncompleteness  int64 `json:"max_incompleteness"`
}

// PlacementTable is the device→group assignment and per-device state of
// a sharded volume at one instant. It is a value computed from the
// children's Disks() each time it is asked for (ShardedVolume.Placement)
// and never changes afterwards — nothing is remembered between calls,
// so nothing can go stale. It serializes to JSON (see Snapshot) for
// smtool inspection.
type PlacementTable struct {
	// devices is sorted by group, then disk string — the stable order
	// JSON dumps and tests rely on.
	devices []tableDevice
}

// tableDevice is a Device with the disk id its Disk string renders and
// the watermark its incompleteness was taken from.
type tableDevice struct {
	Device
	id        raid.DiskID
	watermark int64
}

// newPlacementTable reads every group's disks into a table.
func newPlacementTable(gs []*group) *PlacementTable {
	t := &PlacementTable{}
	for _, g := range gs {
		stripes := int64(g.vol.Stripes())
		for _, d := range g.vol.Disks() {
			t.devices = append(t.devices, tableDevice{id: d.ID, watermark: d.WatermarkStripes, Device: Device{
				Group: g.id, Disk: d.ID.String(), Addr: d.Addr,
				State: d.State, Replacement: d.Replacement,
				IncompleteStripes: stripes - d.WatermarkStripes,
			}})
		}
	}
	sort.Slice(t.devices, func(i, j int) bool {
		a, b := &t.devices[i], &t.devices[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Disk < b.Disk
	})
	return t
}

// Device returns one slot's entry.
func (t *PlacementTable) Device(group int, disk raid.DiskID) (Device, bool) {
	for _, d := range t.devices {
		if d.Group == group && d.id == disk {
			return d.Device, true
		}
	}
	return Device{}, false
}

// Devices returns every slot, sorted by group then disk.
func (t *PlacementTable) Devices() []Device {
	out := make([]Device, len(t.devices))
	for i, d := range t.devices {
		out[i] = d.Device
	}
	return out
}

// Rollup aggregates slot counts per state and the worst incompleteness.
func (t *PlacementTable) Rollup() DeviceRollup {
	var r DeviceRollup
	for _, d := range t.devices {
		switch d.State {
		case DeviceOnline:
			r.Online++
		case DeviceDead:
			r.Dead++
		case DeviceReplacementPending:
			r.ReplacementPending++
		case DeviceRebuilding:
			r.Rebuilding++
		}
		if d.Replacement {
			r.Replacements++
		}
		r.MaxIncompleteness = max(r.MaxIncompleteness, d.IncompleteStripes)
	}
	return r
}

// minWatermark is the lowest watermark across every device — the
// volume's availability frontier — or 0 for an empty table.
func (t *PlacementTable) minWatermark() int64 {
	if len(t.devices) == 0 {
		return 0
	}
	low := t.devices[0].watermark
	for _, d := range t.devices[1:] {
		low = min(low, d.watermark)
	}
	return low
}

// groupPressure summarizes one group's rebuild urgency.
type groupPressure struct {
	group      int
	incomplete int // devices not online
	pending    []raid.DiskID
	stripes    int64 // summed incompleteness
}

// pressure returns per-group urgency, keyed for the scheduler: how many
// devices are not online, which of them are actionable
// (replacement-pending), and the summed incompleteness.
func (t *PlacementTable) pressure() []groupPressure {
	byGroup := map[int]*groupPressure{}
	for _, d := range t.devices {
		gp := byGroup[d.Group]
		if gp == nil {
			gp = &groupPressure{group: d.Group}
			byGroup[d.Group] = gp
		}
		if d.State != DeviceOnline {
			gp.incomplete++
			gp.stripes += d.IncompleteStripes
		}
		if d.State == DeviceReplacementPending {
			gp.pending = append(gp.pending, d.id)
		}
	}
	out := make([]groupPressure, 0, len(byGroup))
	for _, gp := range byGroup {
		sort.Slice(gp.pending, func(i, j int) bool {
			if gp.pending[i].Role != gp.pending[j].Role {
				return gp.pending[i].Role < gp.pending[j].Role
			}
			return gp.pending[i].Index < gp.pending[j].Index
		})
		out = append(out, *gp)
	}
	// Most incomplete devices first, then most missing stripes, then
	// lowest group id so the order is fully deterministic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].incomplete != out[j].incomplete {
			return out[i].incomplete > out[j].incomplete
		}
		if out[i].stripes != out[j].stripes {
			return out[i].stripes > out[j].stripes
		}
		return out[i].group < out[j].group
	})
	return out
}

// Snapshot is the JSON-serializable view of the table: every device
// slot plus the rollup. smtool shard -table prints exactly this.
type Snapshot struct {
	Devices []Device     `json:"devices"`
	Rollup  DeviceRollup `json:"rollup"`
}

// Snapshot captures the table for serialization.
func (t *PlacementTable) Snapshot() Snapshot {
	return Snapshot{Devices: t.Devices(), Rollup: t.Rollup()}
}

// MarshalJSON renders the Snapshot form.
func (t *PlacementTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Snapshot())
}
