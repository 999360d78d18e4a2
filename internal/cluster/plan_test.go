package cluster

import (
	"fmt"
	"strings"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestPlacementTableMatchesPlacement is the flattened table's property
// test: for the architecture built over every registered layout family
// at every n it is defined for, plus the three-mirror geometry, and over
// more than two periods of stripes, the table the volume flattens from
// the architecture answers exactly what the Placement does — Copies
// entry for entry AND order for order (failover order is what hedging,
// degraded-read counting and layout.RebuildSources rely on), each copy
// resolved to the disk that serves its slot, and Owner for every slot.
func TestPlacementTableMatchesPlacement(t *testing.T) {
	type subject struct {
		name  string
		arch  *raid.Mirror
		place layout.Placement // what the table must answer like
	}
	var subjects []subject
	for n := 2; n <= 6; n++ {
		for _, name := range layout.Names() {
			arr, err := layout.New(name, n)
			if err != nil {
				continue // the family is undefined at this n
			}
			// The expectation is spelled out here, not taken from
			// arch.Placement(): a pooled family is its own placement, a
			// classic one the fixed two-array geometry — entry for entry
			// what naming the family over a shifted frame used to give.
			place, pooled := arr.(layout.Placement)
			if !pooled {
				place = layout.PlacementOf(arr)
			}
			subjects = append(subjects, subject{fmt.Sprintf("%s/n=%d", name, n), raid.NewMirror(arr), place})
		}
		if n >= 3 {
			a1, a2 := layout.NewShifted(n), layout.NewGeneralShifted(n, 2, 1)
			subjects = append(subjects, subject{fmt.Sprintf("three-mirror/n=%d", n),
				raid.NewThreeMirror(a1, a2), layout.PlacementOf(a1, a2)})
		}
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			place := sub.place
			ids := sub.arch.Disks()
			table, err := newPlacementTable(sub.arch.Placement(), ids)
			if err != nil {
				t.Fatal(err)
			}
			n := place.N()
			for stripe := 0; stripe < 2*place.Period()+3; stripe++ {
				for disk := 0; disk < n; disk++ {
					for row := 0; row < n; row++ {
						want := place.Copies(int64(stripe), layout.Addr{Disk: disk, Row: row})
						got := table.locations(stripe, disk, row)
						if len(got) != len(want) {
							t.Fatalf("stripe %d data[%d] row %d: %d copies, placement has %d", stripe, disk, row, len(got), len(want))
						}
						for c, w := range want {
							if g := got[c]; g.slot != w.Disk || g.row != w.Row || g.id != ids[w.Disk] {
								t.Fatalf("stripe %d data[%d] row %d copy %d: table %+v, placement %+v on %v",
									stripe, disk, row, c, g, w, ids[w.Disk])
							}
						}
					}
				}
				for slot := 0; slot < place.Width(); slot++ {
					for row := 0; row < n; row++ {
						want, _ := place.Owner(int64(stripe), layout.Slot{Disk: slot, Row: row})
						if got := table.owner(stripe, slot, row); got != want {
							t.Fatalf("stripe %d slot %d row %d: table owner %+v, placement %+v", stripe, slot, row, got, want)
						}
					}
				}
			}
		})
	}
}

// strayPlacement is a classic placement whose second copy of one
// element points outside the pool.
type strayPlacement struct{ *layout.Classic }

func (p strayPlacement) Copies(stripe int64, a layout.Addr) []layout.Slot {
	out := p.Classic.Copies(stripe, a)
	if a.Disk == 1 && a.Row == 0 {
		out[1].Disk = p.Width()
	}
	return out
}

// TestPlacementTableRejectsStrayCopy: the data path indexes per-disk
// state by the table's slots without checking them, so a placement that
// points outside the pool must be refused when the table is built.
func TestPlacementTableRejectsStrayCopy(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	_, err := newPlacementTable(strayPlacement{layout.PlacementOf(arch.Mirrors()...)}, arch.Disks())
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("stray copy accepted: %v", err)
	}
}
