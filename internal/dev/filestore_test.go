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

func TestFileBackedDevice(t *testing.T) {
	dir := t.TempDir()
	arch := raid.NewMirrorWithParity(layout.NewShifted(3))
	d, err := NewOnFiles(arch, 128, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.CloseStores()

	data := make([]byte, d.Size())
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.Size())
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file-backed round trip mismatch")
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}

	// One file per disk exists with the right size.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(arch.Disks()) {
		t.Fatalf("%d files, want %d", len(entries), len(arch.Disks()))
	}
	info, err := os.Stat(filepath.Join(dir, "data-0.disk"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(2*3*128) {
		t.Fatalf("disk file size %d", info.Size())
	}

	// The replica bytes on disk match the arrangement: element (0,1)
	// replicates to mirror disk 1, row 0 under shifted n=3.
	elem := make([]byte, 128)
	mirrorFile, err := os.ReadFile(filepath.Join(dir, "mirror-1.disk"))
	if err != nil {
		t.Fatal(err)
	}
	copy(elem, mirrorFile[0:128]) // stripe 0, row 0
	// Logical element (disk 0, row 1) = row-major index 3 of stripe 0.
	logical := data[3*128 : 4*128]
	if !bytes.Equal(elem, logical) {
		t.Fatal("replica on file store does not match arrangement placement")
	}

	// Failure + rebuild works over files too.
	id := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := d.FailDisk(id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read over files mismatch")
	}
	if err := d.Rebuild(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
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
