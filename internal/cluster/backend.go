package cluster

import (
	"context"
	"io"
	"sync"

	"shiftedmirror/internal/blockserver"
)

// backend is one disk slot's store as the volume core sees it: the
// exchange every read, write, rebuild gather and scrub runs through, the
// verdict that the store is unreachable, closing it, and the address it
// is reported under. Two kinds sit behind it — a connection pool to a
// blockserver backend (pool) and a store in this process (localStore) —
// and nothing above this interface can tell them apart.
type backend interface {
	doCtx(ctx context.Context, op wireOp) error
	isDead() bool
	close()
	address() string
}

// wireOp is one exchange a backend runs. It is an interface rather than
// a func so the data path can hand a backend a pointer into its pooled
// op plan (see vecOp): submitting an op then allocates nothing, where a
// per-call closure costs one heap object. run may be called more than
// once (a pool retries transport failures).
type wireOp interface {
	run(ctx context.Context, c peer) error
}

// peer is what a wireOp runs against: the vector and range calls of a
// wire client, which *blockserver.Client has and localStore mirrors.
type peer interface {
	ReadVCtx(ctx context.Context, vecs []blockserver.Vec, dst [][]byte) error
	WriteVCtx(ctx context.Context, vecs []blockserver.Vec, data [][]byte) (int, error)
	CrcV(ctx context.Context, vecs []blockserver.Vec, out []uint32) error
	Size() (int64, error)
}

// clientFunc adapts a func to wireOp for the management paths (Verify),
// where a closure per call is noise.
type clientFunc func(context.Context, peer) error

func (f clientFunc) run(ctx context.Context, c peer) error { return f(ctx, c) }

// localStore is the in-process backend: the ops a pool would put on the
// wire, applied straight to a store, with the server's contract — a
// range outside the store or a store error comes back as a
// blockserver.RemoteError, and a scatter reports how many leading ranges
// it applied. A vector op holds the store's lock, which orders every
// access the way one disk's queue does (the race detector sees the
// volume's own ordering through it). It is never dead, and has no
// checksums to offer (CrcV answers ErrNoCRC, so a scrub compares bytes).
type localStore struct {
	name  string
	store blockserver.Store
	mu    sync.RWMutex
}

func (l *localStore) doCtx(ctx context.Context, op wireOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return op.run(ctx, l)
}

func (l *localStore) isDead() bool    { return false }
func (l *localStore) address() string { return l.name }

// close releases a store that holds a resource (a file).
func (l *localStore) close() {
	if c, ok := l.store.(io.Closer); ok {
		c.Close()
	}
}

func (l *localStore) ReadVCtx(_ context.Context, vecs []blockserver.Vec, dst [][]byte) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i, v := range vecs {
		if err := l.apply(l.store.ReadAt, dst[i], v.Off); err != nil {
			return err
		}
	}
	return nil
}

func (l *localStore) WriteVCtx(_ context.Context, vecs []blockserver.Vec, data [][]byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, v := range vecs {
		if err := l.apply(l.store.WriteAt, data[i], v.Off); err != nil {
			return i, err
		}
	}
	return len(vecs), nil
}

func (l *localStore) CrcV(context.Context, []blockserver.Vec, []uint32) error {
	return blockserver.ErrNoCRC
}

func (l *localStore) Size() (int64, error) { return l.store.Size(), nil }

// apply moves p at off through do (the store's ReadAt or WriteAt) after
// the bounds check a server makes, which never forms off+len(p).
func (l *localStore) apply(do func([]byte, int64) (int, error), p []byte, off int64) error {
	if off < 0 || off > l.store.Size()-int64(len(p)) {
		return &blockserver.RemoteError{Msg: "range outside the store"}
	}
	if _, err := do(p, off); err != nil {
		return &blockserver.RemoteError{Msg: err.Error()}
	}
	return nil
}
