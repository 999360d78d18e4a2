package dev

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// TestFileBackedDevice runs a device over one file per disk, on both
// backend kinds: the files hold the arrangement's bytes, and a failure is
// served around and rebuilt over files too.
func TestFileBackedDevice(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			arch := raid.NewMirrorWithParity(layout.NewShifted(3))
			files, err := CreateOnFiles(arch, elem, 2, dir)
			if err != nil {
				t.Fatal(err)
			}
			stores := map[raid.DiskID]BackingStore{}
			for id, f := range files {
				stores[id] = f
				t.Cleanup(func() { f.Close() })
			}
			d := openDevice(t, kind, arch, 2, stores)
			data := fillRandom(t, d, 1)
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatal("file-backed round trip mismatch")
			}
			d.scrub(t)

			// One file per disk exists with the right size, beside the
			// manifest.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(arch.Disks())+1 {
				t.Fatalf("%d files, want %d disks and the manifest", len(entries), len(arch.Disks()))
			}
			info, err := os.Stat(filepath.Join(dir, "data-0.disk"))
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != int64(2*3*elem) {
				t.Fatalf("disk file size %d", info.Size())
			}
			// The replica bytes on disk match the arrangement: element (0,1)
			// replicates to mirror disk 1, row 0 under shifted n=3; the
			// parity file holds each row's XOR.
			mirrorFile, err := os.ReadFile(filepath.Join(dir, "mirror-1.disk"))
			if err != nil {
				t.Fatal(err)
			}
			// Logical element (disk 0, row 1) = row-major index 3 of stripe 0.
			if !bytes.Equal(mirrorFile[:elem], data[3*elem:4*elem]) {
				t.Fatal("replica on file store does not match arrangement placement")
			}
			d.expectImages(t, data)

			// Failure + rebuild works over files too.
			d.fail(t, data0)
			if !bytes.Equal(mustRead(t, d), data) {
				t.Fatal("degraded read over files mismatch")
			}
			d.rebuild(t, data0)
			d.scrub(t)
			d.expectImages(t, data)
		})
	}
}

func TestOpenFileStoreValidation(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing", "x"), 10); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// TestReopenFileStore: reopening a disk file keeps its bytes and takes
// its size from the file; a file that is not there is an error, never a
// fresh disk.
func TestReopenFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	pattern := make([]byte, 3000)
	rand.New(rand.NewSource(2)).Read(pattern)
	fs, err := OpenFileStore(path, int64(len(pattern)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := ReopenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != int64(len(pattern)) {
		t.Fatalf("reopened store reports %d bytes, want %d", re.Size(), len(pattern))
	}
	got := make([]byte, len(pattern))
	if _, err := re.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatal("reopening changed the file's bytes")
	}

	missing := filepath.Join(t.TempDir(), "missing.img")
	if _, err := ReopenFileStore(missing); err == nil {
		t.Fatal("reopened a file that does not exist")
	}
	if _, err := os.Stat(missing); err == nil {
		t.Fatal("ReopenFileStore created the missing file")
	}
}
