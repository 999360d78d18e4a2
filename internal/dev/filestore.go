package dev

import (
	"fmt"
	"os"
	"path/filepath"

	"shiftedmirror/internal/raid"
)

// FileStore is a BackingStore over an operating-system file, so a Device
// can persist its disks on a real filesystem (one file per simulated
// disk, as mdadm would use one block device each).
type FileStore struct {
	f    *os.File
	size int64
}

// OpenFileStore creates (or truncates) a file of the given size and wraps
// it as a BackingStore.
func OpenFileStore(path string, size int64) (*FileStore, error) {
	if size < 1 {
		return nil, fmt.Errorf("dev: file store size %d must be positive", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dev: open %s: %w", path, err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("dev: truncate %s: %w", path, err)
	}
	return &FileStore{f: f, size: size}, nil
}

// ReopenFileStore wraps an existing file as a BackingStore without
// touching its bytes; the store's size is the file's.
func ReopenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("dev: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dev: stat %s: %w", path, err)
	}
	return &FileStore{f: f, size: info.Size()}, nil
}

// ReadAt implements io.ReaderAt.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }

// Size implements BackingStore.
func (s *FileStore) Size() int64 { return s.size }

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// NewOnFiles builds a device whose disks are files under dir (created if
// missing), named "<role>-<index>.disk". The caller owns the directory;
// CloseStores releases the files.
func NewOnFiles(arch *raid.Mirror, elementSize int64, stripes int, dir string) (*Device, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dev: create %s: %w", dir, err)
	}
	d := New(arch, elementSize, stripes)
	perDisk := int64(stripes) * int64(arch.N()) * elementSize
	for _, id := range arch.Disks() {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.disk", id.Role, id.Index))
		fs, err := OpenFileStore(path, perDisk)
		if err != nil {
			d.CloseStores()
			return nil, err
		}
		d.stores[id] = fs
	}
	return d, nil
}

// CloseStores closes every backing store that is closable (file-backed
// devices; in-memory stores are no-ops).
func (d *Device) CloseStores() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, s := range d.stores {
		if c, ok := s.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
