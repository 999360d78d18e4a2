package cluster

import (
	"bytes"
	"testing"

	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/raid"
)

// assertCopiesEqual is the check a mirror exists to pass: at a quiescent
// point, every copy of every element that the volume would serve holds
// the same bytes. It reads each backend's store directly — not through
// the volume, whose reads stop at the first live copy and so can never
// see a stale second one — and compares, element by element, every
// location on a disk that is available for the element's stripe: every
// stripe of a disk in service, the stripes below the watermark of one
// still failed. On a mirror-with-parity volume each row's parity, where
// the parity disk holds the stripe, must also equal the XOR of the row's
// data elements (each taken from any of its copies that holds the
// stripe). Availability comes from Disks(), so the check judges the
// volume by what it says about itself.
func assertCopiesEqual(t testing.TB, v *Volume, b *testBackends) {
	t.Helper()
	watermark := map[raid.DiskID]int64{}
	images := map[raid.DiskID][]byte{}
	for _, d := range v.Disks() {
		watermark[d.ID] = d.WatermarkStripes
		if d.WatermarkStripes == 0 {
			continue
		}
		img := make([]byte, v.DiskSize())
		if _, err := b.view(d.ID).ReadAt(img, 0); err != nil {
			t.Fatalf("reading %v's store: %v", d.ID, err)
		}
		images[d.ID] = img
	}
	for stripe := 0; stripe < v.stripes; stripe++ {
		rows := make([][]byte, v.n) // per row: the XOR of its data, nil once an element has no copy here
		for row := range rows {
			rows[row] = make([]byte, v.elementSize)
		}
		for disk := 0; disk < v.n; disk++ {
			for row := 0; row < v.n; row++ {
				var ref []byte
				var refLoc location
				for _, loc := range v.locations(stripe, disk, row) {
					if int64(stripe) >= watermark[loc.id] {
						continue
					}
					at := v.storeOffset(stripe, loc.row)
					got := images[loc.id][at : at+v.elementSize]
					if ref == nil {
						ref, refLoc = got, loc
					} else if !bytes.Equal(ref, got) {
						t.Fatalf("copies diverge: data[%d] stripe %d row %d on %v differs from its copy on %v",
							disk, stripe, row, loc.id, refLoc.id)
					}
				}
				if ref == nil {
					rows[row] = nil
				} else if rows[row] != nil {
					gf.XorSlice(ref, rows[row])
				}
			}
		}
		if v.parity < 0 || int64(stripe) >= watermark[v.ids[v.parity]] {
			continue
		}
		for row, want := range rows {
			at := v.storeOffset(stripe, row)
			if got := images[v.ids[v.parity]][at : at+v.elementSize]; want != nil && !bytes.Equal(got, want) {
				t.Fatalf("parity of stripe %d row %d is not the XOR of the row's data", stripe, row)
			}
		}
	}
}
