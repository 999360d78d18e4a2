package dev

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestChaos drives a device with a long random operation sequence —
// reads, writes, failures, rebuilds, scrubs — against a shadow model,
// checking after every step that served data matches the model and that
// the device never claims success past its redundancy. Each seed picks
// the backend kind and the architecture. Deterministic per seed;
// failures print the seed for replay.
func TestChaos(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run("", func(t *testing.T) { chaosRun(t, seed) })
	}
}

func chaosRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3)
	arch := []*raid.Mirror{
		raid.NewMirror(layout.NewShifted(n)),
		raid.NewMirrorWithParity(layout.NewShifted(n)),
		raid.NewMirrorWithParity(layout.NewTraditional(n)),
		raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1)),
	}[rng.Intn(4)]
	kind := backendKinds[rng.Intn(len(backendKinds))]
	stripes := 2 + rng.Intn(3)
	d := newDevice(t, kind, arch, stripes)
	ctx := context.Background()
	shadow := make([]byte, d.Size())
	// unknown marks bytes a write that reported data loss may or may not
	// have changed: the elements it reached took the new bytes, the one it
	// could not reach kept the old.
	unknown := make([]bool, d.Size())
	failed := map[raid.DiskID]bool{}
	disks := arch.Disks()

	// recoverable mirrors the device's redundancy rule through the
	// planner: the current failure set must have a recovery plan.
	recoverable := func() bool {
		_, err := arch.RecoveryPlan(failedList(failed))
		return err == nil
	}
	// matches compares a read with the model where the model knows.
	matches := func(got []byte, off int64) bool {
		for i, b := range got {
			if !unknown[off+int64(i)] && b != shadow[off+int64(i)] {
				return false
			}
		}
		return true
	}
	span := func() (int64, int) {
		off := rng.Int63n(d.Size() - 1)
		length := 1 + rng.Intn(3*elem)
		if off+int64(length) > d.Size() {
			length = int(d.Size() - off)
		}
		return off, length
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // read
			off, length := span()
			buf := make([]byte, length)
			if _, err := d.ReadAt(buf, off); err != nil {
				if errors.Is(err, cluster.ErrDataLoss) && !recoverable() {
					continue // legitimate loss
				}
				t.Fatalf("seed %d step %d (%s, %s): read: %v", seed, step, kind, arch.Name(), err)
			}
			if !matches(buf, off) {
				t.Fatalf("seed %d step %d (%s, %s): read mismatch at %d (+%d)", seed, step, kind, arch.Name(), off, length)
			}
		case op < 7: // write
			off, length := span()
			buf := make([]byte, length)
			rng.Read(buf)
			_, err := d.WriteAt(buf, off)
			copy(shadow[off:], buf)
			if err != nil {
				if errors.Is(err, cluster.ErrDataLoss) && !recoverable() {
					for i := range buf {
						unknown[off+int64(i)] = true
					}
					continue
				}
				t.Fatalf("seed %d step %d (%s, %s): write: %v", seed, step, kind, arch.Name(), err)
			}
			clear(unknown[off : off+int64(length)])
		case op < 8: // fail a random healthy disk
			id := disks[rng.Intn(len(disks))]
			if failed[id] {
				continue
			}
			d.fail(t, id)
			failed[id] = true
		case op < 9: // rebuild a random failed disk
			list := failedList(failed)
			if len(list) == 0 {
				continue
			}
			id := list[rng.Intn(len(list))]
			if err := d.RebuildDisk(ctx, id); err != nil {
				if !recoverable() {
					continue // beyond redundancy: rebuild may fail
				}
				t.Fatalf("seed %d step %d (%s, %s): rebuild %v: %v", seed, step, kind, arch.Name(), id, err)
			}
			delete(failed, id)
		default: // scrub (only meaningful when consistent)
			if !recoverable() {
				continue
			}
			if _, err := d.Scrub(ctx); err != nil && !errors.Is(err, cluster.ErrDegraded) {
				t.Fatalf("seed %d step %d (%s, %s): scrub: %v", seed, step, kind, arch.Name(), err)
			}
		}
	}
	// Drain: rebuild everything still failed if possible, then final
	// verification.
	if recoverable() {
		for _, id := range failedList(failed) {
			d.rebuild(t, id)
		}
		if got := mustRead(t, d); !matches(got, 0) {
			t.Fatalf("seed %d (%s, %s): final contents diverged", seed, kind, arch.Name())
		}
		d.scrub(t)
	}
}

func failedList(m map[raid.DiskID]bool) []raid.DiskID {
	var out []raid.DiskID
	for id, f := range m {
		if f {
			out = append(out, id)
		}
	}
	return out
}
