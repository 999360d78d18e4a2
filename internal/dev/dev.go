// Package dev implements a working fault-tolerant block device on top of
// the mirror-family architectures: a logical byte space striped over
// simulated (in-memory) disks, with replica and parity maintenance on
// writes, transparent degraded reads after failures, online rebuild onto
// fresh disks, and consistency scrubbing.
//
// This is the data path a storage system would actually mount — the
// planners in internal/raid decide *what* to read and write; this package
// moves the bytes and keeps the redundancy invariants true.
package dev

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// Errors.
var (
	// ErrDataLoss is returned when a read cannot be served from any
	// surviving redundancy.
	ErrDataLoss = errors.New("dev: data loss — element unrecoverable")
	// ErrDiskFailed is returned when an operation addresses a disk that
	// is marked failed.
	ErrDiskFailed = errors.New("dev: disk is failed")
	// ErrScrubMismatch is returned by Scrub when redundancy disagrees
	// with data.
	ErrScrubMismatch = errors.New("dev: scrub found inconsistent redundancy")
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

// Device is a logical block device over a mirror-family architecture.
// All methods are safe for concurrent use.
type Device struct {
	mu          sync.RWMutex
	arch        *raid.Mirror
	n           int
	elementSize int64
	stripes     int
	stores      map[raid.DiskID]BackingStore
	failed      map[raid.DiskID]bool
	// progress[id] is the number of leading stripes already rebuilt onto
	// a failed disk's replacement store; reads and writes for those
	// stripes use the replacement even before Rebuild completes.
	progress map[raid.DiskID]int
	health   healthCounters
}

// healthCounters uses atomics because element reads bump them under the
// shared read lock.
type healthCounters struct {
	elementsRead, elementsWritten atomic.Int64
	degradedReads                 atomic.Int64
	parityFallbacks               atomic.Int64
	stripesRebuilt                atomic.Int64
}

// Health is a snapshot of the device's service counters.
type Health struct {
	// ElementsRead and ElementsWritten count element-level operations
	// on the logical space (not per-disk I/O).
	ElementsRead, ElementsWritten int64
	// DegradedReads counts element reads served from redundancy.
	DegradedReads int64
	// ParityFallbacks counts degraded reads that needed the parity path
	// (every replica of the element was unavailable).
	ParityFallbacks int64
	// StripesRebuilt counts stripes restored by Rebuild.
	StripesRebuilt int64
}

// New builds a device over fresh zeroed in-memory disks. The logical
// capacity is stripes × n × n × elementSize bytes.
func New(arch *raid.Mirror, elementSize int64, stripes int) *Device {
	if elementSize < 1 || stripes < 1 {
		panic(fmt.Sprintf("dev: invalid geometry elementSize=%d stripes=%d", elementSize, stripes))
	}
	d := &Device{
		arch:        arch,
		n:           arch.N(),
		elementSize: elementSize,
		stripes:     stripes,
		stores:      map[raid.DiskID]BackingStore{},
		failed:      map[raid.DiskID]bool{},
		progress:    map[raid.DiskID]int{},
	}
	perDisk := int64(stripes) * int64(d.n) * elementSize
	for _, id := range arch.Disks() {
		d.stores[id] = NewMemStore(perDisk)
	}
	return d
}

// Size returns the logical capacity in bytes.
func (d *Device) Size() int64 {
	return int64(d.stripes) * int64(d.n) * int64(d.n) * d.elementSize
}

// Arch returns the underlying architecture.
func (d *Device) Arch() *raid.Mirror { return d.arch }

// Health returns a snapshot of the device's service counters.
func (d *Device) Health() Health {
	return Health{
		ElementsRead:    d.health.elementsRead.Load(),
		ElementsWritten: d.health.elementsWritten.Load(),
		DegradedReads:   d.health.degradedReads.Load(),
		ParityFallbacks: d.health.parityFallbacks.Load(),
		StripesRebuilt:  d.health.stripesRebuilt.Load(),
	}
}

// FailedDisks returns the currently failed disks in the architecture's
// disk order (role, then index).
func (d *Device) FailedDisks() []raid.DiskID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []raid.DiskID
	for _, id := range d.arch.Disks() {
		if d.failed[id] {
			out = append(out, id)
		}
	}
	return out
}

// elemAddr locates logical byte offset off: the stripe, row, disk, and
// offset within the element. Logical layout is row-major within each
// stripe, matching the paper's element numbering.
func (d *Device) elemAddr(off int64) (stripe, disk, row int, inner int64) {
	elem := off / d.elementSize
	inner = off % d.elementSize
	perStripe := int64(d.n) * int64(d.n)
	stripe = int(elem / perStripe)
	idx := elem % perStripe
	row = int(idx / int64(d.n))
	disk = int(idx % int64(d.n))
	return stripe, disk, row, inner
}

// storeOffset is the byte offset of element (stripe, row) within a disk.
func (d *Device) storeOffset(stripe, row int) int64 {
	return (int64(stripe)*int64(d.n) + int64(row)) * d.elementSize
}

// ReadAt implements io.ReaderAt over the logical space, transparently
// recovering elements that live on failed disks (degraded reads).
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= d.Size() {
		return 0, fmt.Errorf("dev: read offset %d outside device of %d bytes", off, d.Size())
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	total := 0
	for total < len(p) && off < d.Size() {
		stripe, disk, row, inner := d.elemAddr(off)
		chunk := d.elementSize - inner
		if rem := int64(len(p) - total); chunk > rem {
			chunk = rem
		}
		elem, err := d.readElement(stripe, disk, row)
		if err != nil {
			return total, err
		}
		copy(p[total:total+int(chunk)], elem[inner:inner+chunk])
		total += int(chunk)
		off += chunk
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// available reports whether an element of the given stripe can be read
// from the disk directly: the disk is healthy, or the stripe has already
// been rebuilt onto its replacement.
func (d *Device) available(id raid.DiskID, stripe int) bool {
	return !d.failed[id] || stripe < d.progress[id]
}

// readElement returns the content of data element (stripe, disk, row),
// serving from redundancy when the disk is failed and the stripe not yet
// rebuilt.
func (d *Device) readElement(stripe, disk, row int) ([]byte, error) {
	d.health.elementsRead.Add(1)
	dataID := raid.DiskID{Role: raid.RoleData, Index: disk}
	if d.available(dataID, stripe) {
		return d.readRaw(dataID, stripe, row)
	}
	d.health.degradedReads.Add(1)
	// Degraded: try each mirror array's replica.
	roles := []raid.Role{raid.RoleMirror, raid.RoleMirror2}
	for mi, arr := range d.arch.Mirrors() {
		loc := arr.MirrorOf(layout.Addr{Disk: disk, Row: row})
		id := raid.DiskID{Role: roles[mi], Index: loc.Disk}
		if d.available(id, stripe) {
			return d.readRaw(id, stripe, loc.Row)
		}
	}
	// Parity path: XOR of the other row elements and the parity element.
	if d.arch.Parity() && d.available(raid.DiskID{Role: raid.RoleParity, Index: 0}, stripe) {
		d.health.parityFallbacks.Add(1)
		out, err := d.readRaw(raid.DiskID{Role: raid.RoleParity, Index: 0}, stripe, row)
		if err != nil {
			return nil, err
		}
		for i := 0; i < d.n; i++ {
			if i == disk {
				continue
			}
			other, err := d.readElement(stripe, i, row)
			if err != nil {
				return nil, fmt.Errorf("%w (while xoring row %d)", err, row)
			}
			gf.XorSlice(other, out)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: data[%d] stripe %d row %d", ErrDataLoss, disk, stripe, row)
}

// readRaw reads one element from a disk's store (the replacement store
// for rebuilt stripes of failed disks).
func (d *Device) readRaw(id raid.DiskID, stripe, row int) ([]byte, error) {
	buf := make([]byte, d.elementSize)
	if _, err := d.stores[id].ReadAt(buf, d.storeOffset(stripe, row)); err != nil {
		return nil, fmt.Errorf("dev: %v stripe %d row %d: %w", id, stripe, row, err)
	}
	return buf, nil
}

// writeRaw writes one element to a disk unless the element's stripe is
// unavailable there (writes to the unrebuilt part of a failed disk are
// skipped: the redundancy carries the data until Rebuild reaches it).
func (d *Device) writeRaw(id raid.DiskID, stripe, row int, data []byte) error {
	if !d.available(id, stripe) {
		return nil
	}
	if _, err := d.stores[id].WriteAt(data, d.storeOffset(stripe, row)); err != nil {
		return fmt.Errorf("dev: %v stripe %d row %d: %w", id, stripe, row, err)
	}
	return nil
}

// WriteAt implements io.WriterAt over the logical space, keeping every
// replica and parity element consistent. Writes that straddle element
// boundaries are split; sub-element writes read-modify-write the element.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > d.Size() {
		return 0, fmt.Errorf("dev: write [%d,%d) outside device of %d bytes", off, off+int64(len(p)), d.Size())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for total < len(p) {
		stripe, disk, row, inner := d.elemAddr(off)
		chunk := d.elementSize - inner
		if rem := int64(len(p) - total); chunk > rem {
			chunk = rem
		}
		var newElem []byte
		if inner == 0 && chunk == d.elementSize {
			newElem = p[total : total+int(chunk)]
		} else {
			old, err := d.readElement(stripe, disk, row)
			if err != nil {
				return total, err
			}
			copy(old[inner:inner+chunk], p[total:total+int(chunk)])
			newElem = old
		}
		if err := d.writeElement(stripe, disk, row, newElem); err != nil {
			return total, err
		}
		total += int(chunk)
		off += chunk
	}
	return total, nil
}

// writeElement writes one full data element and updates its redundancy.
func (d *Device) writeElement(stripe, disk, row int, data []byte) error {
	d.health.elementsWritten.Add(1)
	// Parity delta needs the old value while it is still readable.
	if d.arch.Parity() {
		parityID := raid.DiskID{Role: raid.RoleParity, Index: 0}
		if d.available(parityID, stripe) {
			old, err := d.readElement(stripe, disk, row)
			if err != nil {
				return err
			}
			parity, err := d.readRaw(parityID, stripe, row)
			if err != nil {
				return err
			}
			gf.XorSlice(old, parity)
			gf.XorSlice(data, parity)
			if err := d.writeRaw(parityID, stripe, row, parity); err != nil {
				return err
			}
		}
	}
	if err := d.writeRaw(raid.DiskID{Role: raid.RoleData, Index: disk}, stripe, row, data); err != nil {
		return err
	}
	roles := []raid.Role{raid.RoleMirror, raid.RoleMirror2}
	for mi, arr := range d.arch.Mirrors() {
		loc := arr.MirrorOf(layout.Addr{Disk: disk, Row: row})
		if err := d.writeRaw(raid.DiskID{Role: roles[mi], Index: loc.Disk}, stripe, loc.Row, data); err != nil {
			return err
		}
	}
	return nil
}

// FailDisk marks a disk failed: its store is dropped and all service
// continues from redundancy. The replacement store installed for a later
// Rebuild is in-memory regardless of the original backing (a fresh
// "spare"). Failing more disks than the architecture can recover is
// allowed (reads will return ErrDataLoss).
func (d *Device) FailDisk(id raid.DiskID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.stores[id]; !ok {
		return fmt.Errorf("dev: unknown disk %v", id)
	}
	if d.failed[id] {
		return fmt.Errorf("%w: %v already failed", ErrDiskFailed, id)
	}
	d.failed[id] = true
	d.progress[id] = 0
	d.stores[id] = NewMemStore(d.stores[id].Size()) // contents are gone
	return nil
}

// Rebuild reconstructs a failed disk's contents onto its (fresh) store
// and returns the disk to service. The rebuild is incremental: it
// proceeds stripe by stripe, releasing the device lock between stripes so
// reads and writes keep flowing, and already-rebuilt stripes are served
// from the replacement disk immediately.
func (d *Device) Rebuild(id raid.DiskID) error {
	d.mu.Lock()
	if !d.failed[id] {
		d.mu.Unlock()
		return fmt.Errorf("dev: disk %v is not failed", id)
	}
	d.mu.Unlock()
	for stripe := 0; stripe < d.stripes; stripe++ {
		if err := d.rebuildStripe(id, stripe); err != nil {
			return err
		}
	}
	d.mu.Lock()
	delete(d.failed, id)
	delete(d.progress, id)
	d.mu.Unlock()
	return nil
}

// rebuildStripe recovers one stripe of a failed disk under the lock. The
// recovery plan is rebuilt per stripe so concurrent failures are picked
// up rather than worked from a stale plan.
func (d *Device) rebuildStripe(id raid.DiskID, stripe int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.failed[id] {
		return fmt.Errorf("dev: disk %v is not failed", id)
	}
	var failedSet []raid.DiskID
	for f := range d.failed {
		failedSet = append(failedSet, f)
	}
	plan, err := d.arch.RecoveryPlan(failedSet)
	if err != nil {
		return err
	}
	recovered := map[raid.ElementRef][]byte{}
	for _, rec := range plan.Recoveries {
		content, err := d.recoverContent(stripe, rec, recovered)
		if err != nil {
			return err
		}
		recovered[rec.Target] = content
		if rec.Target.OnDisk(id) {
			dst := raid.DiskID{Role: rec.Target.Role, Index: rec.Target.Disk}
			if _, err := d.stores[dst].WriteAt(content, d.storeOffset(stripe, rec.Target.Row)); err != nil {
				return err
			}
		}
	}
	d.progress[id] = stripe + 1
	d.health.stripesRebuilt.Add(1)
	return nil
}

// recoverContent materializes one recovery's bytes from surviving disks
// and previously recovered elements.
func (d *Device) recoverContent(stripe int, rec raid.Recovery, recovered map[raid.ElementRef][]byte) ([]byte, error) {
	read := func(ref raid.ElementRef) ([]byte, error) {
		if b, ok := recovered[ref]; ok {
			return b, nil
		}
		srcID := raid.DiskID{Role: ref.Role, Index: ref.Disk}
		if !d.available(srcID, stripe) {
			return nil, fmt.Errorf("%w: source %v unavailable", ErrDataLoss, ref)
		}
		return d.readRaw(srcID, stripe, ref.Row)
	}
	switch rec.Method {
	case raid.Copy:
		src, err := read(rec.From[0])
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), src...), nil
	case raid.Xor:
		out := make([]byte, d.elementSize)
		for _, from := range rec.From {
			src, err := read(from)
			if err != nil {
				return nil, err
			}
			gf.XorSlice(src, out)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("dev: unsupported recovery method %v", rec.Method)
	}
}

// Scrub verifies every redundancy invariant on healthy disks: replicas
// equal their data elements, and parity rows XOR to zero with their data
// rows. It returns ErrScrubMismatch (wrapped with the first divergent
// element) on inconsistency.
func (d *Device) Scrub() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, err := d.checkRedundancy(false)
	return err
}

// Resilver recomputes every redundant element of healthy disks from the
// data elements and rewrites the ones that disagree (repairing the
// inconsistencies Scrub reports, e.g. after bit rot on a replica). It
// returns the number of elements rewritten. Data elements themselves are
// taken as the source of truth.
func (d *Device) Resilver() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkRedundancy(true)
}

// checkRedundancy walks every stripe row comparing each healthy
// redundant element (replica, parity) with what the data elements say
// it should hold. A divergent element is rewritten and counted when
// repair is set, and ends the walk with ErrScrubMismatch otherwise. The
// caller holds the device lock, exclusively for repair.
func (d *Device) checkRedundancy(repair bool) (repaired int, err error) {
	roles := []raid.Role{raid.RoleMirror, raid.RoleMirror2}
	parityID := raid.DiskID{Role: raid.RoleParity, Index: 0}
	// settle compares one redundant element with its expected content,
	// rewriting a divergent one under repair; ok is false for a mismatch
	// left standing.
	settle := func(id raid.DiskID, stripe, row int, want []byte) (ok bool, err error) {
		got, err := d.readRaw(id, stripe, row)
		if err != nil || bytesEqual(got, want) {
			return true, err
		}
		if !repair {
			return false, nil
		}
		repaired++
		return true, d.writeRaw(id, stripe, row, want)
	}
	for stripe := 0; stripe < d.stripes; stripe++ {
		for row := 0; row < d.n; row++ {
			parityAcc := make([]byte, d.elementSize)
			parityOK := d.arch.Parity() && d.available(parityID, stripe)
			for disk := 0; disk < d.n; disk++ {
				dataID := raid.DiskID{Role: raid.RoleData, Index: disk}
				if !d.available(dataID, stripe) {
					parityOK = false
					continue
				}
				data, err := d.readRaw(dataID, stripe, row)
				if err != nil {
					return repaired, err
				}
				if parityOK {
					gf.XorSlice(data, parityAcc)
				}
				for mi, arr := range d.arch.Mirrors() {
					loc := arr.MirrorOf(layout.Addr{Disk: disk, Row: row})
					id := raid.DiskID{Role: roles[mi], Index: loc.Disk}
					if !d.available(id, stripe) {
						continue
					}
					if ok, err := settle(id, stripe, loc.Row, data); err != nil {
						return repaired, err
					} else if !ok {
						return repaired, fmt.Errorf("%w: replica %v of data[%d] stripe %d row %d",
							ErrScrubMismatch, id, disk, stripe, row)
					}
				}
			}
			if parityOK {
				if ok, err := settle(parityID, stripe, row, parityAcc); err != nil {
					return repaired, err
				} else if !ok {
					return repaired, fmt.Errorf("%w: parity stripe %d row %d", ErrScrubMismatch, stripe, row)
				}
			}
		}
	}
	return repaired, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
