package dev

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestCreateAndReopenDevice writes a file-backed device, closes it and
// opens it again from its manifest, on both backend kinds: contents and
// redundancy survive.
func TestCreateAndReopenDevice(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			arch := raid.NewMirrorWithParity(layout.NewShifted(3))
			files, err := CreateOnFiles(arch, 128, 2, dir)
			if err != nil {
				t.Fatal(err)
			}
			d := openFiles(t, kind, arch, 128, 2, files)
			data := make([]byte, d.Size())
			rand.New(rand.NewSource(40)).Read(data)
			if _, err := d.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			d.Close()
			closeFiles(files)

			// Reopen: contents and redundancy must survive.
			reArch, m, files, err := OpenOnFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			if reArch.Name() != arch.Name() || m.ElementSize != 128 || m.Stripes != 2 {
				t.Fatalf("reopened %s with %d-byte elements and %d stripes", reArch.Name(), m.ElementSize, m.Stripes)
			}
			re := openFiles(t, kind, reArch, m.ElementSize, m.Stripes, files)
			got := make([]byte, re.Size())
			if _, err := re.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("contents lost across reopen")
			}
			if _, err := re.Scrub(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// openFiles stripes a device of the given kind over disk files, closed
// with the test.
func openFiles(t *testing.T, kind string, arch *raid.Mirror, elementSize int64, stripes int, files map[raid.DiskID]*FileStore) *cluster.Volume {
	t.Helper()
	t.Cleanup(func() { closeFiles(files) })
	cfg := cluster.Config{ElementSize: elementSize, Stripes: stripes}
	if kind == "local" {
		v, err := cluster.NewLocal(arch, files, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	addrs := map[raid.DiskID]string{}
	for id, f := range files {
		srv := blockserver.NewStoreServer(f)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = addr.String()
	}
	v, err := cluster.New(arch, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	return v
}

func TestReopenRoundTripsArrangements(t *testing.T) {
	for _, arch := range []*raid.Mirror{
		raid.NewMirror(layout.NewTraditional(3)),
		raid.NewMirror(layout.NewIterated(3, 3)),
		raid.NewThreeMirror(layout.NewGeneralShifted(5, 1, 1), layout.NewGeneralShifted(5, 2, 1)),
	} {
		dir := t.TempDir()
		files, err := CreateOnFiles(arch, 64, 1, dir)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name(), err)
		}
		closeFiles(files)
		re, _, files, err := OpenOnFiles(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", arch.Name(), err)
		}
		if re.Name() != arch.Name() {
			t.Errorf("round trip changed %s to %s", arch.Name(), re.Name())
		}
		closeFiles(files)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := OpenOnFiles(dir); err == nil {
		t.Fatal("missing manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenOnFiles(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"n":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenOnFiles(dir); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestOpenRejectsResizedDiskFile(t *testing.T) {
	dir := t.TempDir()
	arch := raid.NewMirror(layout.NewShifted(2))
	files, err := CreateOnFiles(arch, 64, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	closeFiles(files)
	if err := os.Truncate(filepath.Join(dir, "data-0.disk"), 32); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenOnFiles(dir); err == nil {
		t.Fatal("resized disk file accepted")
	}
}

func TestManifestRejectsCustomArrangement(t *testing.T) {
	tables := layout.SearchValid(3, 1)
	arch := raid.NewMirror(tables[0])
	if _, err := CreateOnFiles(arch, 64, 1, t.TempDir()); err == nil {
		t.Fatal("table-backed arrangement serialized")
	}
}
