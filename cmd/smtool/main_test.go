package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/shard"
)

// runCaptured runs one subcommand with os.Stdout redirected and decodes
// the JSON document it prints last into v.
func runCaptured(t *testing.T, cmd func([]string) error, args []string, v any) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		out, _ := io.ReadAll(r) // a short read shows up as a decode failure below
		printed <- string(out)
	}()
	err = cmd(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	at := strings.Index(out, "\n{")
	if at < 0 {
		t.Fatalf("%v printed no JSON:\n%s", args, out)
	}
	if err := json.Unmarshal([]byte(out[at:]), v); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
}

// TestShardSelfHosted runs the sharded demo end to end over in-process
// backends — fill, fail, degraded read, replace, scheduled rebuild,
// scrub — and reads the placement table it prints.
func TestShardSelfHosted(t *testing.T) {
	var table shard.Snapshot
	runCaptured(t, cmdShard, []string{"-groups", "2", "-fail", "0:data:0", "-table"}, &table)
	if len(table.Devices) != 2*6 || table.Rollup.Online != len(table.Devices) {
		t.Fatalf("placement table after the rebuild: %+v", table)
	}
	for _, d := range table.Devices {
		if d.State != shard.DeviceOnline || d.Replacement || d.IncompleteStripes != 0 {
			t.Fatalf("device not back online: %+v", d)
		}
	}
}

// TestClusterSelfHosted does the same for a single volume, over a pooled
// layout named by -arrangement.
func TestClusterSelfHosted(t *testing.T) {
	var stats cluster.Stats
	runCaptured(t, cmdCluster, []string{"-arrangement", "declustered", "-n", "4", "-stripes", "14", "-fail", "data:0", "-stats"}, &stats)
	if len(stats.Backends) != 8 || stats.Rebuild.Completed != 1 {
		t.Fatalf("stats after the rebuild: %d backends, %d rebuilds", len(stats.Backends), stats.Rebuild.Completed)
	}
	for _, b := range stats.Backends {
		if b.Failed || b.Dead || b.WatermarkStripes != 14 {
			t.Fatalf("backend not back online: %+v", b)
		}
		// Declustered: every one of the 2n-1 survivors is a rebuild source,
		// which no classic two-array wrapping of the arrangement would give.
		if b.Disk != "data[0]" && b.RebuildReadElements == 0 {
			t.Fatalf("backend %s served no rebuild reads: the pooled layout is not in use", b.Disk)
		}
	}
}

// TestServeDiskKeepsExistingImage: servedisk -path on a disk image that
// already exists serves it as it is — a restarted backend still holds
// its copy of every element — and only a missing file is created at
// -size.
func TestServeDiskKeepsExistingImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	image := bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, 1000)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := openDiskImage(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(image)) {
		t.Fatalf("serving %d bytes of a %d-byte image", f.Size(), len(image))
	}
	f.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("opening the image for serving changed it (read error %v)", err)
	}

	fresh, err := openDiskImage(filepath.Join(t.TempDir(), "new.img"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Size() != 4096 {
		t.Fatalf("new image has %d bytes, want 4096", fresh.Size())
	}
}
