package shard

import (
	"encoding/json"
	"testing"

	"shiftedmirror/internal/raid"
)

func TestDeviceStateJSON(t *testing.T) {
	for _, st := range []DeviceState{DeviceOnline, DeviceDead, DeviceReplacementPending, DeviceRebuilding} {
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back DeviceState
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("%v round-tripped to %v", st, back)
		}
	}
	var bad DeviceState
	if err := json.Unmarshal([]byte(`"limping"`), &bad); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestPlacementTableRollupAndPressure(t *testing.T) {
	d0 := raid.DiskID{Role: raid.RoleData, Index: 0}
	d1 := raid.DiskID{Role: raid.RoleData, Index: 1}
	m0 := raid.DiskID{Role: raid.RoleMirror, Index: 0}
	entry := func(g int, id raid.DiskID, st DeviceState, replacement bool, incomplete int64) tableDevice {
		return tableDevice{id: id, Device: Device{
			Group: g, Disk: id.String(), State: st, Replacement: replacement, IncompleteStripes: incomplete,
		}}
	}
	tab := &PlacementTable{devices: []tableDevice{
		entry(0, d0, DeviceOnline, false, 0),
		entry(0, d1, DeviceOnline, false, 0),
		entry(0, m0, DeviceOnline, false, 0),
		// Group 1: one pending device, 5 stripes missing.
		entry(1, d0, DeviceReplacementPending, true, 5),
		entry(1, d1, DeviceOnline, false, 0),
		entry(1, m0, DeviceOnline, false, 0),
		// Group 2: two non-online devices (one pending, one dead), 3 missing.
		entry(2, d0, DeviceOnline, false, 0),
		entry(2, d1, DeviceReplacementPending, false, 2),
		entry(2, m0, DeviceDead, false, 1),
	}}

	r := tab.Rollup()
	if r.Online != 6 || r.Dead != 1 || r.ReplacementPending != 2 || r.Rebuilding != 0 {
		t.Fatalf("rollup: %+v", r)
	}
	if r.Replacements != 1 || r.MaxIncompleteness != 5 {
		t.Fatalf("rollup extras: %+v", r)
	}

	q := tab.pressure()
	if len(q) != 3 {
		t.Fatalf("pressure groups: %d", len(q))
	}
	// Group 2 first (2 incomplete devices beats group 1's 1), then group
	// 1, then group 0 (clean).
	if q[0].group != 2 || q[1].group != 1 || q[2].group != 0 {
		t.Fatalf("pressure order: %+v", q)
	}
	if len(q[0].pending) != 1 || q[0].pending[0] != d1 {
		t.Fatalf("group 2 pending: %+v", q[0].pending)
	}
	if len(q[2].pending) != 0 {
		t.Fatalf("clean group has pending: %+v", q[2])
	}

	// Snapshot JSON round trip preserves states and ordering.
	blob, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Devices) != 9 || snap.Rollup != r {
		t.Fatalf("snapshot round trip: %+v", snap.Rollup)
	}
	for i := 1; i < len(snap.Devices); i++ {
		a, b := snap.Devices[i-1], snap.Devices[i]
		if a.Group > b.Group || (a.Group == b.Group && a.Disk > b.Disk) {
			t.Fatalf("snapshot unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestPlanGroupsTier(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "hdd-a", ReadRateMBps: 100, CapacityBytes: 1 << 30},
		{Addr: "ssd-a", ReadRateMBps: 1000, CapacityBytes: 1 << 30},
		{Addr: "hdd-b", ReadRateMBps: 100, CapacityBytes: 1 << 30},
		{Addr: "ssd-b", ReadRateMBps: 1000, CapacityBytes: 1 << 30},
	}
	groups, err := PlanGroups(devs, 2, 2, 1<<20, PlaceTier)
	if err != nil {
		t.Fatal(err)
	}
	// Tiering keeps the SSDs together so the fast group is never gated
	// by an HDD peer.
	if groups[0][0].Addr != "ssd-a" || groups[0][1].Addr != "ssd-b" {
		t.Fatalf("fast tier: %+v", groups[0])
	}
	if groups[1][0].Addr != "hdd-a" || groups[1][1].Addr != "hdd-b" {
		t.Fatalf("slow tier: %+v", groups[1])
	}
}

func TestPlanGroupsBalance(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "d1", ReadRateMBps: 400},
		{Addr: "d2", ReadRateMBps: 300},
		{Addr: "d3", ReadRateMBps: 200},
		{Addr: "d4", ReadRateMBps: 100},
	}
	groups, err := PlanGroups(devs, 2, 2, 0, PlaceBalance)
	if err != nil {
		t.Fatal(err)
	}
	// Serpentine: row 0 deals 400,300 left-to-right; row 1 deals 200,100
	// right-to-left — both groups end at 500 aggregate.
	sum := func(g []DeviceSpec) float64 {
		var s float64
		for _, d := range g {
			s += d.ReadRateMBps
		}
		return s
	}
	if sum(groups[0]) != sum(groups[1]) {
		t.Fatalf("unbalanced: %v vs %v", groups[0], groups[1])
	}
}

func TestPlanGroupsUnthrottledIsFastest(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "capped", ReadRateMBps: 5000},
		{Addr: "uncapped"}, // rate 0 = unthrottled
		{Addr: "slow-a", ReadRateMBps: 100},
		{Addr: "slow-b", ReadRateMBps: 100},
	}
	groups, err := PlanGroups(devs, 2, 2, 0, PlaceTier)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0][0].Addr != "uncapped" {
		t.Fatalf("unthrottled device not ranked fastest: %+v", groups[0])
	}
}

func TestPlanGroupsErrors(t *testing.T) {
	devs := []DeviceSpec{{Addr: "a"}, {Addr: "b"}, {Addr: "c"}}
	if _, err := PlanGroups(devs, 2, 2, 0, PlaceTier); err == nil {
		t.Fatal("short fleet accepted")
	}
	small := []DeviceSpec{
		{Addr: "a", CapacityBytes: 100},
		{Addr: "b", CapacityBytes: 1 << 30},
	}
	if _, err := PlanGroups(small, 1, 2, 1<<20, PlaceTier); err == nil {
		t.Fatal("undersized device accepted")
	}
	if _, err := PlanGroups(devs, 0, 2, 0, PlaceTier); err == nil {
		t.Fatal("zero groups accepted")
	}
	if _, err := PlanGroups(devs, 1, 2, 0, PlacementPolicy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
