package faultinject

import (
	"sync"

	"shiftedmirror/internal/blockserver"
)

// OrderedStore puts a lock around a backend's store, for runs under the
// race detector. A MemStore, like the disk it models, serves overlapping
// reads and writes with no synchronization of its own, and a volume
// gives it two kinds: ops in flight at once may overlap by design (raw
// block-device semantics), and accesses the volume does order — a user
// write, then a rebuild's gather of the same element — reach a backend
// on different connections, ordered through the volume's write fence
// and a TCP round trip, which the detector cannot see. The lock gives it
// an edge for both, so what a race-enabled run reports is the volume's
// own. It hides the inner store's DirectStore side, so every op takes
// the server's copying path.
type OrderedStore struct {
	blockserver.Store
	mu sync.RWMutex
}

func (s *OrderedStore) ReadAt(p []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Store.ReadAt(p, off)
}

func (s *OrderedStore) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Store.WriteAt(p, off)
}
