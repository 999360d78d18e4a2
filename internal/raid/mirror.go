package raid

import (
	"fmt"

	"shiftedmirror/internal/layout"
)

// Mirror is the mirror-method family: a data array plus one or two mirror
// arrays (three-mirror extension), optionally with a parity disk. The
// element arrangement of each mirror array is pluggable, so the same
// planner covers the traditional mirror method, the paper's shifted
// variants, and the three-mirror future-work extension.
type Mirror struct {
	n       int
	mirrors []layout.Arrangement // index 0 -> RoleMirror, 1 -> RoleMirror2
	parity  bool
}

// mirrorRoles[i] is the role of mirror array i.
var mirrorRoles = []Role{RoleMirror, RoleMirror2}

// NewMirror returns the plain mirror method (RAID-1 layout) under the
// given arrangement: n data disks and n mirror disks.
func NewMirror(arr layout.Arrangement) *Mirror {
	return &Mirror{n: arr.N(), mirrors: []layout.Arrangement{arr}}
}

// NewMirrorWithParity returns the mirror method with parity (§V): n data
// disks, n mirror disks, and one parity disk holding the XOR of each data
// row. Fault tolerance two.
func NewMirrorWithParity(arr layout.Arrangement) *Mirror {
	return &Mirror{n: arr.N(), mirrors: []layout.Arrangement{arr}, parity: true}
}

// NewThreeMirror returns the three-mirror method (the paper's future-work
// extension, as used by GFS and Ceph): a data array and two mirror arrays
// with independent arrangements. Fault tolerance two.
func NewThreeMirror(arr1, arr2 layout.Arrangement) *Mirror {
	if arr1.N() != arr2.N() {
		panic("raid: three-mirror arrangements must share n")
	}
	return &Mirror{n: arr1.N(), mirrors: []layout.Arrangement{arr1, arr2}}
}

// Name implements Architecture.
func (m *Mirror) Name() string {
	base := m.mirrors[0].Name()
	switch {
	case len(m.mirrors) == 2:
		return fmt.Sprintf("three-mirror(%s,%s)", m.mirrors[0].Name(), m.mirrors[1].Name())
	case m.parity:
		return base + "-mirror+parity"
	default:
		return base + "-mirror"
	}
}

// N implements Architecture.
func (m *Mirror) N() int { return m.n }

// Parity reports whether the architecture includes a parity disk.
func (m *Mirror) Parity() bool { return m.parity }

// Mirrors returns the mirror arrangements (1 or 2).
func (m *Mirror) Mirrors() []layout.Arrangement { return m.mirrors }

// Placement returns where every copy of every element lives, as pool
// slots numbered in Disks() order: the arrangement itself when a single
// mirror array's arrangement is a pooled layout.Placement (declustered),
// else the arrangements wrapped as the classic fixed two- or three-array
// geometry. A parity disk holds no copy and is not part of it.
func (m *Mirror) Placement() layout.Placement {
	if len(m.mirrors) == 1 {
		if p, ok := m.mirrors[0].(layout.Placement); ok {
			return p
		}
	}
	return layout.PlacementOf(m.mirrors...)
}

// FaultTolerance implements Architecture.
func (m *Mirror) FaultTolerance() int {
	if m.parity || len(m.mirrors) == 2 {
		return 2
	}
	return 1
}

// Shape implements Architecture.
func (m *Mirror) Shape() map[Role]ArrayShape {
	s := map[Role]ArrayShape{
		RoleData:   {Disks: m.n, Rows: m.n},
		RoleMirror: {Disks: m.n, Rows: m.n},
	}
	if len(m.mirrors) == 2 {
		s[RoleMirror2] = ArrayShape{Disks: m.n, Rows: m.n}
	}
	if m.parity {
		s[RoleParity] = ArrayShape{Disks: 1, Rows: m.n}
	}
	return s
}

// Disks implements Architecture.
func (m *Mirror) Disks() []DiskID {
	var out []DiskID
	for i := 0; i < m.n; i++ {
		out = append(out, DiskID{Role: RoleData, Index: i})
	}
	for mi := range m.mirrors {
		for i := 0; i < m.n; i++ {
			out = append(out, DiskID{Role: mirrorRoles[mi], Index: i})
		}
	}
	if m.parity {
		out = append(out, DiskID{Role: RoleParity, Index: 0})
	}
	return out
}

// StorageEfficiency implements Architecture: n/(2n) for the mirror
// method, n/(2n+1) with parity, n/(3n) for three-mirror.
func (m *Mirror) StorageEfficiency() float64 {
	total := m.n * (1 + len(m.mirrors))
	if m.parity {
		total++
	}
	return float64(m.n) / float64(total)
}

// planner accumulates a plan with read deduplication and recovered-target
// tracking.
type planner struct {
	failed    map[DiskID]bool
	recovered map[ElementRef]bool
	readSet   map[ElementRef]bool
	plan      *Plan
}

func newPlanner(failed []DiskID) *planner {
	p := &planner{
		failed:    map[DiskID]bool{},
		recovered: map[ElementRef]bool{},
		readSet:   map[ElementRef]bool{},
		plan:      &Plan{Failed: append([]DiskID(nil), failed...)},
	}
	for _, f := range failed {
		p.failed[f] = true
	}
	return p
}

func (p *planner) diskFailed(e ElementRef) bool {
	return p.failed[DiskID{Role: e.Role, Index: e.Disk}]
}

// available reports whether e can serve as a recovery source: it is on an
// intact disk, or it has already been recovered by an earlier step.
func (p *planner) available(e ElementRef) bool {
	return !p.diskFailed(e) || p.recovered[e]
}

// emit records one recovery, adding reads for every source that lives on
// an intact disk (recovered sources are not re-read). forAvail marks the
// reads as part of the data-availability metric.
func (p *planner) emit(target ElementRef, method Method, from []ElementRef, forAvail bool) {
	for _, src := range from {
		if p.diskFailed(src) {
			continue // served from an earlier recovery
		}
		if !p.readSet[src] {
			p.readSet[src] = true
			p.plan.Reads = append(p.plan.Reads, src)
			if forAvail {
				p.plan.AvailReads = append(p.plan.AvailReads, src)
			}
		}
	}
	p.plan.Recoveries = append(p.plan.Recoveries, Recovery{Target: target, Method: method, From: from})
	p.recovered[target] = true
}

// RecoveryPlan implements Architecture. It handles any failure set the
// architecture can recover, not just those within the nominal fault
// tolerance: a plain mirror method, for instance, recovers two failures
// within the same array.
func (m *Mirror) RecoveryPlan(failed []DiskID) (*Plan, error) {
	if err := validateFailed(m, failed); err != nil {
		return nil, err
	}
	p := newPlanner(failed)

	// Pass 1: lost data elements recoverable by copying from an intact
	// mirror replica.
	var deferred []ElementRef // data elements with every replica lost
	for i := 0; i < m.n; i++ {
		if !p.failed[DiskID{Role: RoleData, Index: i}] {
			continue
		}
		for j := 0; j < m.n; j++ {
			target := ElementRef{Role: RoleData, Disk: i, Row: j}
			if src, ok := m.replicaSource(p, i, j); ok {
				p.emit(target, Copy, []ElementRef{src}, true)
			} else {
				deferred = append(deferred, target)
			}
		}
	}

	// Pass 2: deferred data elements through the parity equation
	// (the only element needing computation in the paper's case F3).
	for _, target := range deferred {
		if !m.parity || p.failed[DiskID{Role: RoleParity, Index: 0}] {
			return nil, fmt.Errorf("%w: %v has no intact replica and no parity path", ErrUnrecoverable, target)
		}
		from := make([]ElementRef, 0, m.n)
		for i := 0; i < m.n; i++ {
			if i == target.Disk {
				continue
			}
			src := ElementRef{Role: RoleData, Disk: i, Row: target.Row}
			if !p.available(src) {
				return nil, fmt.Errorf("%w: parity path for %v needs unavailable %v", ErrUnrecoverable, target, src)
			}
			from = append(from, src)
		}
		from = append(from, ElementRef{Role: RoleParity, Disk: 0, Row: target.Row})
		p.emit(target, Xor, from, true)
	}

	// Pass 3: lost mirror elements, copied from their source data
	// element (intact or just recovered) or from another mirror array.
	for mi, arr := range m.mirrors {
		role := mirrorRoles[mi]
		for d := 0; d < m.n; d++ {
			if !p.failed[DiskID{Role: role, Index: d}] {
				continue
			}
			for r := 0; r < m.n; r++ {
				target := ElementRef{Role: role, Disk: d, Row: r}
				data := arr.DataOf(layout.Addr{Disk: d, Row: r})
				dataRef := ElementRef{Role: RoleData, Disk: data.Disk, Row: data.Row}
				// Passes 1-2 recovered every lost data element or bailed
				// out, so the source is intact or already rebuilt.
				if !p.available(dataRef) {
					return nil, fmt.Errorf("%w: mirror element %v has no available source", ErrUnrecoverable, target)
				}
				p.emit(target, Copy, []ElementRef{dataRef}, true)
			}
		}
	}

	// Pass 4: rebuild a lost parity disk from the data rows (reads that
	// do not count toward the availability metric, per Table I).
	if m.parity && p.failed[DiskID{Role: RoleParity, Index: 0}] {
		for j := 0; j < m.n; j++ {
			target := ElementRef{Role: RoleParity, Disk: 0, Row: j}
			from := make([]ElementRef, 0, m.n)
			for i := 0; i < m.n; i++ {
				src := ElementRef{Role: RoleData, Disk: i, Row: j}
				if !p.available(src) {
					return nil, fmt.Errorf("%w: parity rebuild needs unavailable %v", ErrUnrecoverable, src)
				}
				from = append(from, src)
			}
			p.emit(target, Xor, from, false)
		}
	}
	return p.plan, nil
}

// replicaSource finds an intact mirror replica of data element (i,j).
func (m *Mirror) replicaSource(p *planner, i, j int) (ElementRef, bool) {
	for mi, arr := range m.mirrors {
		loc := arr.MirrorOf(layout.Addr{Disk: i, Row: j})
		ref := ElementRef{Role: mirrorRoles[mi], Disk: loc.Disk, Row: loc.Row}
		if !p.diskFailed(ref) {
			return ref, true
		}
	}
	return ElementRef{}, false
}
