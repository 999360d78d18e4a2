// Package dev holds the disks of an in-process block device: MemStore
// and FileStore (one disk's bytes in memory or in a file) and the
// device.json manifest that lets a file-backed device be reopened. The
// device itself — striping, failover, rebuild, scrub — is a
// cluster.Volume over such stores (cluster.NewLocal), the same core that
// runs over the wire.
package dev

import (
	"fmt"
	"io"
)

// BackingStore is one disk's byte store.
type BackingStore interface {
	io.ReaderAt
	io.WriterAt
	// Size is the store capacity in bytes.
	Size() int64
}

// MemStore is an in-memory BackingStore.
type MemStore struct {
	buf []byte
}

// NewMemStore allocates a zeroed in-memory store.
func NewMemStore(size int64) *MemStore { return &MemStore{buf: make([]byte, size)} }

// ReadAt implements io.ReaderAt.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.buf)) {
		return 0, fmt.Errorf("dev: read offset %d outside store of %d bytes", off, len(m.buf))
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if !m.holds(off, int64(len(p))) {
		return 0, fmt.Errorf("dev: write of %d bytes at offset %d outside store of %d bytes", len(p), off, len(m.buf))
	}
	return copy(m.buf[off:], p), nil
}

// holds reports whether [off, off+n) lies inside the store. It never
// forms off+n, which an offset near MaxInt64 would wrap.
func (m *MemStore) holds(off, n int64) bool {
	return off >= 0 && n >= 0 && off <= int64(len(m.buf))-n
}

// Size implements BackingStore.
func (m *MemStore) Size() int64 { return int64(len(m.buf)) }

// Slice exposes the store's memory for [off, off+n), implementing
// blockserver.DirectStore so a server can move payloads between the
// socket and the store without an intermediate copy. The slice aliases
// the same bytes ReadAt/WriteAt operate on and stays valid for the
// store's lifetime.
func (m *MemStore) Slice(off, n int64) ([]byte, bool) {
	if !m.holds(off, n) {
		return nil, false
	}
	return m.buf[off : off+n : off+n], true
}
