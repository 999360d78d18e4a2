package shard

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

var modelSeed = flag.Int64("modelseed", 0, "run TestDiskStateModel on this one seed (0: the built-in seeds)")

// modelDisk is the reference state machine for one disk: the bits the
// volume keeps, with the same derivation, written independently. up is
// the test's own knowledge of whether the disk's backend server runs.
type modelDisk struct {
	failed, replacement, up bool
	watermark               int
}

func (d modelDisk) state() DeviceState {
	switch {
	case d.failed && d.replacement:
		return DeviceReplacementPending
	case d.failed:
		return DeviceDead
	default:
		return DeviceOnline
	}
}

func (d *modelDisk) fail()    { *d = modelDisk{failed: true, up: d.up} }
func (d *modelDisk) replace() { d.replacement, d.up, d.watermark = true, true, 0 }

// rebuild is a RebuildDisk attempt that runs until the watermark reaches
// stop (a cancellation point, or the stripe count for a full run).
func (d *modelDisk) rebuild(stop, stripes int) (ok bool) {
	switch {
	case !d.failed:
		return false // refused: nothing changes
	case !d.up:
		d.replacement = true
		return false
	case stop < stripes:
		d.replacement, d.watermark = true, stop
		return false
	}
	*d = modelDisk{up: true}
	return true
}

// TestDiskStateModel drives one group of a sharded volume through seeded
// random sequences of failures and repairs — through the shard, through
// the child behind its back, and by killing backends under writes — and
// after every step checks everything the volume reports about its disks
// against the reference machine: each placement entry, the Health
// rollup, the scraped gauges, and RemoveGroup's verdict. Nothing is ever
// called to refresh anything. Replay one seed with -modelseed.
func TestDiskStateModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runDiskStateModel(t, seed) })
	}
}

func runDiskStateModel(t *testing.T, seed int64) {
	const (
		n, elementSize   = 3, 64
		stripes, batch   = 6, 2 // fastClusterConfig's RebuildBatch
		gid, steps       = 1, 40
		otherGroupOnline = 2 * n
	)
	rng := rand.New(rand.NewSource(seed))
	// cancelAfterSlice, when set, cancels the rebuild in flight as soon as
	// its next slice lands: a cancellation at a known watermark.
	var cancelAfterSlice context.CancelFunc
	reg := obs.NewRegistry()
	s, backends := newTestShardOn(t, startGatedGroupBackends, n, elementSize, []int{stripes, stripes}, Config{Metrics: reg}, func(c *cluster.Config) {
		c.Tracer = obs.TracerFunc(func(ev obs.Event) {
			if ev.Op == "rebuild_slice" && cancelAfterSlice != nil {
				cancelAfterSlice()
				cancelAfterSlice = nil
			}
		})
	})
	child, _ := s.GroupVolume(gid)
	ids := child.Arch().Disks()
	model := map[raid.DiskID]*modelDisk{}
	for _, id := range ids {
		model[id] = &modelDisk{up: true}
	}
	payload := shardPayload(t, s, seed)
	ctx := context.Background()

	// otherRoleFailed: every element has a copy in the data array and one
	// in the mirror array, so content survives any set of failures within
	// one array. The sequence never fails disks of both at once.
	otherRoleFailed := func(id raid.DiskID) bool {
		for other, d := range model {
			if other.Role != id.Role && d.failed {
				return true
			}
		}
		return false
	}
	check := func(step string) {
		t.Helper()
		table := s.Placement()
		want := DeviceRollup{}
		for _, id := range ids {
			m := model[id]
			incomplete := int64(0)
			if m.failed {
				incomplete = int64(stripes - m.watermark)
			}
			got, _ := table.Device(gid, id)
			if got.State != m.state() || got.Replacement != m.replacement || got.IncompleteStripes != incomplete {
				t.Fatalf("seed %d, %s: %v is %v replacement=%v incomplete=%d, model says %v replacement=%v incomplete=%d",
					seed, step, id, got.State, got.Replacement, got.IncompleteStripes, m.state(), m.replacement, incomplete)
			}
			switch m.state() {
			case DeviceOnline:
				want.Online++
			case DeviceDead:
				want.Dead++
			case DeviceReplacementPending:
				want.ReplacementPending++
			}
			if m.replacement {
				want.Replacements++
			}
			want.MaxIncompleteness = max(want.MaxIncompleteness, incomplete)
		}
		degraded := want.Online != len(ids)
		want.Online += otherGroupOnline
		if got := s.Health().Devices; got != want {
			t.Fatalf("seed %d, %s: health rollup %+v, model says %+v", seed, step, got, want)
		}
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("sm_shard_devices_online %d\n", want.Online),
			fmt.Sprintf("sm_shard_devices_dead %d\n", want.Dead),
			fmt.Sprintf("sm_shard_devices_replacement_pending %d\n", want.ReplacementPending),
			fmt.Sprintf("sm_shard_max_incompleteness_stripes %d\n", want.MaxIncompleteness),
		} {
			if !strings.Contains(sb.String(), line) {
				t.Fatalf("seed %d, %s: scrape lacks %q", seed, step, line)
			}
		}
		// RemoveGroup refuses exactly the groups the model calls degraded.
		// (Only the refusal can be asked for mid-sequence: a removal that
		// is not refused happens. The end of the run asks the other way.)
		if degraded {
			if err := s.RemoveGroup(ctx, gid); !errors.Is(err, ErrGroupDegraded) {
				t.Fatalf("seed %d, %s: RemoveGroup of a degraded group = %v", seed, step, err)
			}
		}
	}

	// midSlice runs a RebuildDisk of id with its first gather parked at
	// the gates of its sources (the disks of the other array), calls
	// during while it is parked — the rebuild is then inside a slice, its
	// window published, nothing written back — lets the gather go and
	// returns the rebuild's verdict.
	midSlice := func(rctx context.Context, id raid.DiskID, during func()) error {
		var held []*faultinject.Gate
		for other, g := range backends[gid].gates {
			if other.Role != id.Role {
				g.HoldReads()
				held = append(held, g)
			}
		}
		release := func() {
			for _, g := range held {
				g.Release(nil)
			}
		}
		done := make(chan error, 1)
		go func() { done <- s.RebuildDisk(rctx, gid, id) }()
		for parked := false; !parked; time.Sleep(100 * time.Microsecond) {
			select {
			case err := <-done: // refused before it read anything
				release()
				return err
			default:
			}
			for _, g := range held {
				parked = parked || g.Waiting() > 0
			}
		}
		during()
		release()
		return <-done
	}

	check("start")
	for i := 0; i < steps; { // a draw that does not apply is redrawn, not counted
		id := ids[rng.Intn(len(ids))]
		m := model[id]
		var step string
		switch op := rng.Intn(10); op {
		case 0, 1: // Fail, through the shard or behind its back
			if otherRoleFailed(id) {
				continue
			}
			fail := func() error { return s.Fail(gid, id) }
			step = fmt.Sprintf("step %d: Fail %v", i, id)
			if op == 1 {
				fail = func() error { return child.Fail(id) }
				step = fmt.Sprintf("step %d: child-level Fail %v", i, id)
			}
			if err := fail(); (err == nil) == m.failed {
				t.Fatalf("seed %d, %s with the disk failed=%v: %v", seed, step, m.failed, err)
			}
			if !m.failed {
				m.fail()
			}
		case 2: // kill the backend under writes: auto-fail
			if m.failed || otherRoleFailed(id) {
				continue
			}
			step = fmt.Sprintf("step %d: kill %v under writes", i, id)
			backends[gid].kill(id)
			m.up = false
			rng.Read(payload)
			if _, err := s.WriteAt(payload, 0); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
			m.fail()
		case 3: // attach a fresh backend to a failed disk
			if !m.failed {
				continue
			}
			step = fmt.Sprintf("step %d: ReplaceBackend %v", i, id)
			if err := s.ReplaceBackend(gid, id, backends[gid].replace(id)); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
			m.replace()
		case 4: // rebuild: ok, refused (healthy disk), or onto a dead backend
			step = fmt.Sprintf("step %d: RebuildDisk %v", i, id)
			err := s.RebuildDisk(ctx, gid, id)
			if ok := m.rebuild(stripes, stripes); (err == nil) != ok {
				t.Fatalf("seed %d, %s: %v, model says ok=%v", seed, step, err, ok)
			}
		case 5: // rebuild cancelled once the next slice has landed
			if !m.failed || !m.up {
				continue
			}
			step = fmt.Sprintf("step %d: RebuildDisk %v cancelled after a slice", i, id)
			cctx, cancel := context.WithCancel(ctx)
			cancelAfterSlice = cancel
			err := s.RebuildDisk(cctx, gid, id)
			cancel()
			if ok := m.rebuild(m.watermark+batch, stripes); (err == nil) != ok || (!ok && !errors.Is(err, context.Canceled)) {
				t.Fatalf("seed %d, %s: %v, model says ok=%v", seed, step, err, ok)
			}
		case 6: // the scheduler drains everything pending that can be
			step = fmt.Sprintf("step %d: RebuildPending", i)
			allOK := true
			for _, id := range ids {
				if d := model[id]; d.state() == DeviceReplacementPending {
					allOK = d.rebuild(stripes, stripes) && allOK
				}
			}
			if err := s.RebuildPending(ctx); (err == nil) != allOK {
				t.Fatalf("seed %d, %s: %v, model says ok=%v", seed, step, err, allOK)
			}
		case 7: // a fresh backend attached mid-slice: the slice in flight is discarded, the rebuild starts over onto it
			if !m.failed {
				continue
			}
			step = fmt.Sprintf("step %d: ReplaceBackend %v mid-slice", i, id)
			err := midSlice(ctx, id, func() {
				if err := s.ReplaceBackend(gid, id, backends[gid].replace(id)); err != nil {
					t.Fatalf("seed %d, %s: %v", seed, step, err)
				}
			})
			m.replace()
			if ok := m.rebuild(stripes, stripes); (err == nil) != ok {
				t.Fatalf("seed %d, %s: rebuild %v, model says ok=%v", seed, step, err, ok)
			}
		case 8: // Fail mid-slice: refused for the rebuilding disk, immediate for a neighbour
			if !m.failed {
				continue
			}
			step = fmt.Sprintf("step %d: Fail mid-slice of %v's rebuild", i, id)
			err := midSlice(ctx, id, func() {
				if err := s.Fail(gid, id); !errors.Is(err, cluster.ErrDiskFailed) {
					t.Fatalf("seed %d, %s: Fail of the rebuilding disk = %v", seed, step, err)
				}
				for _, other := range ids {
					if o := model[other]; other.Role == id.Role && !o.failed {
						if err := s.Fail(gid, other); err != nil {
							t.Fatalf("seed %d, %s: Fail %v: %v", seed, step, other, err)
						}
						o.fail()
						break
					}
				}
			})
			if ok := m.rebuild(stripes, stripes); (err == nil) != ok {
				t.Fatalf("seed %d, %s: rebuild %v, model says ok=%v", seed, step, err, ok)
			}
		case 9: // cancelled mid-slice: the watermark stays where the slice found it
			if !m.failed {
				continue
			}
			step = fmt.Sprintf("step %d: RebuildDisk %v cancelled mid-slice", i, id)
			cctx, cancel := context.WithCancel(ctx)
			err := midSlice(cctx, id, cancel)
			if m.rebuild(m.watermark, stripes) || !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
		}
		check(step)
		i++
	}

	// Repair whatever the sequence left broken; then every acknowledged
	// byte must still be there, on every copy, and the group may leave.
	for _, id := range ids {
		if m := model[id]; m.failed && !(m.replacement && m.up) {
			if err := s.ReplaceBackend(gid, id, backends[gid].replace(id)); err != nil {
				t.Fatal(err)
			}
			m.replace()
		}
	}
	if err := s.RebuildPending(ctx); err != nil {
		t.Fatalf("seed %d: final RebuildPending: %v", seed, err)
	}
	for _, id := range ids {
		model[id].rebuild(stripes, stripes)
	}
	check("repaired")
	got := make([]byte, s.Size())
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("seed %d: content diverged", seed)
	}
	if _, err := s.Scrub(ctx); err != nil {
		t.Fatalf("seed %d: scrub after repair: %v", seed, err)
	}
	if err := s.RemoveGroup(ctx, gid); err != nil {
		t.Fatalf("seed %d: RemoveGroup of a repaired group: %v", seed, err)
	}
}
