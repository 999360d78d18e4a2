package dev

import (
	"fmt"
	"os"
)

// FileStore is a BackingStore over an operating-system file, so a device
// can persist its disks on a real filesystem (one file per disk, as
// mdadm would use one block device each).
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
