package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// rebuildReadCounts runs one data[0] rebuild and returns each backend's
// rebuild-source element count, keyed by disk label.
func rebuildReadCounts(t *testing.T, arr layout.Arrangement, stripes int) (map[string]int64, Stats) {
	t.Helper()
	arch := raid.NewMirror(arr)
	v, backends := newTestVolume(t, arch, 64, stripes)
	randomPayload(t, v, 11)
	v.ResetRebuildReads() // isolate the rebuild from setup traffic
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	// A healthy user read after the rebuild: lands on data backends only,
	// so it must not disturb the rebuild-read attribution below.
	if _, err := v.ReadAt(make([]byte, v.Size()), 0); err != nil {
		t.Fatal(err)
	}
	s := v.Stats()
	counts := map[string]int64{}
	for _, b := range s.Backends {
		if b.RebuildReadElements > 0 {
			counts[b.Disk] = b.RebuildReadElements
		}
	}
	return counts, s
}

// TestRebuildReadDistribution measures the paper's Properties 1/2 on
// the wire: rebuilding a shifted data disk must source one
// element-column from each of the n distinct mirror backends (uniform
// load), while the traditional arrangement drains everything from the
// single twin.
func TestRebuildReadDistribution(t *testing.T) {
	const n, stripes = 4, 6
	total := int64(n * stripes) // n lost elements per stripe

	shifted, _ := rebuildReadCounts(t, layout.NewShifted(n), stripes)
	if len(shifted) != n {
		t.Fatalf("shifted rebuild read from %d backends, want %d: %v", len(shifted), n, shifted)
	}
	var sum, min, max int64
	min = total
	for disk, c := range shifted {
		if !strings.HasPrefix(disk, "mirror") {
			t.Fatalf("shifted rebuild sourced from non-mirror backend %s", disk)
		}
		sum += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if sum != total {
		t.Fatalf("shifted rebuild read %d elements, want %d", sum, total)
	}
	if max-min > 1 {
		t.Fatalf("shifted rebuild load not uniform: min %d max %d (%v)", min, max, shifted)
	}

	trad, _ := rebuildReadCounts(t, layout.NewTraditional(n), stripes)
	if len(trad) != 1 {
		t.Fatalf("traditional rebuild read from %d backends, want 1: %v", len(trad), trad)
	}
	for disk, c := range trad {
		if c != total {
			t.Fatalf("traditional twin %s served %d elements, want %d", disk, c, total)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	const n, stripes = 3, 4
	_, s := rebuildReadCounts(t, layout.NewShifted(n), stripes)
	if s.ElementsRead == 0 || s.ElementsWritten == 0 {
		t.Fatalf("element counters empty: %+v", s)
	}
	if s.Rebuild.Completed != 1 || s.Rebuild.Bytes == 0 || s.Rebuild.MBps <= 0 ||
		s.Rebuild.Stripes != int64(stripes) || s.Rebuild.StripesPerSec <= 0 {
		t.Fatalf("rebuild stats wrong: %+v", s.Rebuild)
	}
	if s.Rebuild.Active != 0 {
		t.Fatalf("rebuild still active in snapshot: %+v", s.Rebuild)
	}
	if s.Rebuild.SliceLatency.Count == 0 {
		t.Fatal("no rebuild slice latency observations")
	}
	if s.ReadLatency.Count == 0 || s.WriteLatency.Count == 0 {
		t.Fatalf("latency histograms empty: read %d write %d", s.ReadLatency.Count, s.WriteLatency.Count)
	}
	if len(s.Backends) != 2*n {
		t.Fatalf("got %d backends, want %d", len(s.Backends), 2*n)
	}
	for _, b := range s.Backends {
		if b.Failed || b.Dead {
			t.Fatalf("backend %s unhealthy after rebuild: %+v", b.Disk, b)
		}
		if b.WatermarkStripes != int64(stripes) {
			t.Fatalf("backend %s watermark %d, want %d", b.Disk, b.WatermarkStripes, stripes)
		}
		if b.Requests == 0 {
			t.Fatalf("backend %s saw no requests", b.Disk)
		}
	}
	// The snapshot must be JSON-marshalable for clusterrecon reports.
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rebuild.Completed != 1 || len(back.Backends) != 2*n {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestVolumeMetricsExposition(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, _ := newTestVolume(t, arch, 64, 4)
	randomPayload(t, v, 3)
	reg := obs.NewRegistry()
	v.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE sm_cluster_elements_written_total counter",
		`sm_cluster_backend_requests_total{disk="data[0]"}`,
		`sm_cluster_rebuild_watermark_stripes{disk="mirror[2]"} 4`,
		"sm_cluster_write_duration_seconds_count 1",
		"sm_cluster_rebuilds_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestVolumeTracerEvents(t *testing.T) {
	const n, stripes = 3, 4
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, 64, stripes)
	var mu sync.Mutex
	ops := map[string]int{}
	cfg := fastConfig(64, stripes)
	cfg.Tracer = obs.TracerFunc(func(ev obs.Event) {
		mu.Lock()
		ops[ev.Op]++
		mu.Unlock()
	})
	v, err := New(arch, backends.addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	randomPayload(t, v, 7)
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceBackend(lost, backends.replace(lost)); err != nil {
		t.Fatal(err)
	}
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ops["fail"] != 1 || ops["replace_backend"] != 1 || ops["rebuild"] != 1 || ops["scrub"] != 1 {
		t.Fatalf("lifecycle events wrong: %v", ops)
	}
	if want := (stripes + 1) / 2; ops["rebuild_slice"] != want { // RebuildBatch=2
		t.Fatalf("got %d rebuild_slice events, want %d (%v)", ops["rebuild_slice"], want, ops)
	}
}

func TestResetRebuildReads(t *testing.T) {
	counts, _ := rebuildReadCounts(t, layout.NewShifted(3), 4)
	if len(counts) == 0 {
		t.Fatal("no rebuild reads recorded")
	}
}

// TestStatsReplaceBackendRace pins the snapshot-vs-lifecycle contract
// under the race detector: Stats() and Health() take the volume's read
// lock for the *full* snapshot (pool pointers, addresses, dead state,
// and the per-disk-slot counters that survive ReplaceBackend), so
// hammering them against concurrent ReplaceBackend calls — which close
// and swap the pool under the exclusive lock while the slot's counters
// carry over — and live I/O must be race-free and must never observe a
// torn pools map.
func TestStatsReplaceBackendRace(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	v, backends := newTestVolume(t, arch, 64, 4)
	payload := randomPayload(t, v, 99)

	target := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // snapshotters
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := v.Stats()
			if len(s.Backends) != len(arch.Disks()) {
				t.Errorf("snapshot saw %d backends, want %d", len(s.Backends), len(arch.Disks()))
				return
			}
			v.Health()
		}
	}()
	go func() { // disk-state readers (the shard layer's polling surface)
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, d := range v.Disks() {
				if d.Addr == "" {
					t.Errorf("disk %v lost its address", d.ID)
					return
				}
			}
		}
	}()
	go func() { // backend swapper
		defer wg.Done()
		for i := 0; i < 25; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := v.ReplaceBackend(target, backends.replace(target)); err != nil {
				t.Errorf("replace: %v", err)
				return
			}
		}
	}()
	go func() { // live traffic on the other disks' elements
		defer wg.Done()
		buf := make([]byte, 256)
		for {
			select {
			case <-done:
				return
			default:
			}
			v.ReadAt(buf, 0) // replaced backend may serve replicas; errors are fine here
		}
	}()
	// Let the snapshotters and the swapper collide for a while.
	time.Sleep(300 * time.Millisecond)
	close(done)
	wg.Wait()

	// The swapped slot's replacement serves zeroes, so declare it failed
	// and verify the volume still serves the original bytes.
	if err := v.Fail(target); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload diverged across concurrent snapshots and backend swaps")
	}
	s := v.Stats()
	for _, b := range s.Backends {
		if b.Disk == target.String() && b.Requests == 0 {
			t.Fatal("per-slot counters did not survive ReplaceBackend")
		}
	}
}
