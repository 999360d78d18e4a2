package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/fanout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// Volume is a mirror-family block device: the element layout of a
// *raid.Mirror architecture striped over one backend per disk — a
// blockserver reached over TCP (New) or a store in this process
// (NewLocal). All methods are safe for concurrent use.
//
// Per-disk state is dense: the disks are numbered once, in
// arch.Disks() order — which is the placement's pool-disk order: the
// data array, then each mirror array, then the parity disk if there is
// one — and every per-disk slice below is indexed by that slot, so the
// data path never hashes a DiskID.
type Volume struct {
	arch *raid.Mirror
	// table maps logical elements to the pool slots holding their
	// copies — the single source of placement truth for the read
	// failover, write fan-out, rebuild gather, scrub, and hedging
	// paths. It is arch.Placement() flattened for the data path.
	table       *placementTable
	ids         []raid.DiskID // slot → disk, fixed at New
	n           int
	elementSize int64
	stripes     int
	cfg         Config

	// parity is the parity disk's slot — the one past the placement's
	// Width, holding the XOR of each stripe row — or -1 for an
	// architecture without one (see parity.go). parityLocs[r] is its row
	// r, the one location a parity span reads.
	parity     int
	parityLocs []location

	// state is the per-disk state every op plans against: one immutable
	// snapshot, loaded with one atomic read and held for as long as the op
	// needs a consistent view (see volState). stateMu serializes the
	// copy-and-swap of whoever changes it — Fail, ReplaceBackend,
	// RebuildDisk, a slice's window and watermark, a write's auto-fail —
	// and is never held across I/O, so none of them waits for any.
	state   atomic.Pointer[volState]
	stateMu sync.Mutex

	// drain is the write drain, the one lock a user write holds across
	// its fan-out: shared, around load-state + plan + scatter + settling
	// what the scatter learned, on the buckets of the stripes it writes
	// (drainSet). Nothing on the read path touches it. A window (a rebuild
	// slice, a scrub batch) takes its buckets exclusively for an instant
	// after it is published, to wait out the writes planned before it that
	// touch it (openWindow). ReplaceBackend holds every bucket around its
	// swap so no write straddles a backend change; the slice returning a
	// disk to service publishes under every bucket so no write planned
	// against the failed disk is still in flight when it turns healthy.
	// Buckets are taken in index order. Order: rmwMu, drain, stateMu.
	drain [drainBuckets]sync.RWMutex

	// scrubPos is ScrubOnline's resumable cursor: the stripe the next
	// online pass (or the resumption of a cancelled one) starts from.
	scrubPos atomic.Int64

	// rmwMu serializes every write that reads before it writes, from its
	// pre-read to the end of its fan-out: the torn elements of a WireCRC
	// volume (two writers patching disjoint parts of one element would
	// otherwise each write back the other's stale bytes) and every write
	// on a parity volume. Every XOR over a row (a degraded read or a
	// rebuild gather from parity) holds it too, so none combines bytes
	// from before and after one write's fan-out. Nothing waits for a
	// rebuild slice's fence while holding it. Taken before drain.
	rmwMu sync.Mutex

	// plans recycles opPlans, the per-op planning scratch.
	plans sync.Pool

	// workers run the shares of a round beyond the one on the calling
	// goroutine (fanOut). At most len(ids) × PoolSize stay parked — as many
	// exchanges as the volume's synchronous pools can run at once — each
	// keeping the stack it grew on the way down to the wire. Close
	// releases them.
	workers *fanout.Workers[shareJob]

	// hedges is the one timer every hedged read in flight shares (hedge.go).
	hedges hedgeClock

	// qos, when non-nil, throttles rebuild slices and online scrub
	// batches through a shared adaptive token bucket (Config.RebuildQoS*
	// / WithRebuildQoS). A slice pays before it opens its window, so a
	// throttled rebuild parks with no write fenced behind that slice.
	qos *qosController

	stats volumeStats
}

type volumeStats struct {
	elementsRead, elementsWritten obs.Counter
	degradedReads                 obs.Counter
	parityReads                   obs.Counter // elements served as the XOR of their row (no copy readable)
	failovers                     obs.Counter
	autoFailed                    obs.Counter
	rebuilds                      obs.Counter
	rebuildBytes                  obs.Counter
	rebuildStripes                obs.Counter
	rebuildNanos                  obs.Counter
	rebuildActive                 obs.Gauge // rebuilds currently in flight
	scrubs                        obs.Counter
	scrubElements                 obs.Counter // replica elements compared across all scrubs
	scrubCRCElements              obs.Counter // subset compared by checksum (OpCrcV fast path)
	scrubSkipped                  obs.Counter // disks skipped across all scrubs

	// crcReadErrors counts vectored reads whose payload failed its
	// CRC-32C at this client — end-to-end corruption detections on the
	// read path (WireCRC mode only).
	crcReadErrors obs.Counter

	// Write-batching accounting: writeBatches counts the scatter
	// exchanges issued by the write fan-out (user writes and rebuild
	// write-back), one per backend per write — which is also the wire
	// frame count whenever a share fits one frame; writeBatchElements
	// counts the element-copy ops those exchanges carried, so
	// elements-per-exchange is their ratio.
	writeBatches       obs.Counter
	writeBatchElements obs.Counter

	// Hedged-read accounting: attempts are hedge timers that fired,
	// wins are reads served by the backup copy, losses are primaries
	// that beat their backup after all, cancels are loser requests
	// cancelled mid-flight.
	hedgeAttempts obs.Counter
	hedgeWins     obs.Counter
	hedgeLosses   obs.Counter
	hedgeCancels  obs.Counter

	// QoS controller accounting (rebuild/scrub throttling): qosRate is
	// the current token-bucket rate in stripes/second, qosHeadroom the
	// signed gap between the SLO and the last feedback window's user
	// fetch p99 in microseconds (negative while the SLO is violated),
	// qosThrottles/qosBoosts count rate halvings and raises, and
	// qosWaitNanos accumulates time rebuild and scrub spent parked
	// waiting for tokens.
	qosRate      obs.Gauge
	qosHeadroom  obs.Gauge
	qosThrottles obs.Counter
	qosBoosts    obs.Counter
	qosWaitNanos obs.Counter

	readLat  *obs.Histogram // ReadAt wall time
	writeLat *obs.Histogram // WriteAt wall time
	sliceLat *obs.Histogram // rebuild slice wall time (window open to watermark published)
	fetchLat *obs.Histogram // per-backend vectored-read round trips (hedge trigger source)

	// pipe aggregates the pipelined-mode wire counters (in-flight window
	// depth, queue-wait latency, frames-per-writev coalescing) across
	// every backend connection. Allocated even when Config.Pipeline is
	// off so Stats()/metrics registration stay unconditional; it simply
	// stays at zero then.
	pipe *blockserver.PipeStats

	// perDisk is fixed at New and indexed by slot: per-slot counters
	// survive backend replacement, so a disk's history spans machine
	// swaps.
	perDisk []diskStats
}

// diskStats are one disk slot's counters: its pool's network-level
// state machine plus the cluster-level rebuild bookkeeping.
type diskStats struct {
	pool poolStats
	// rebuildReads counts data elements this backend served as a
	// *source* for some other disk's rebuild — the wire-level footprint
	// of the paper's Properties 1/2 (shifted: a failed disk's rebuild
	// load spreads one element-column per surviving backend; traditional:
	// it all lands on the twin).
	rebuildReads obs.Counter
}

// init populates a zero volumeStats in place (the struct embeds
// atomics and must not be copied).
func (s *volumeStats) init(disks int) {
	s.readLat = obs.NewHistogram()
	s.writeLat = obs.NewHistogram()
	s.sliceLat = obs.NewHistogram()
	s.fetchLat = obs.NewHistogram()
	s.pipe = blockserver.NewPipeStats()
	s.perDisk = make([]diskStats, disks)
}

// BackendHealth is one backend's view in a Health snapshot.
type BackendHealth struct {
	ID   raid.DiskID
	Addr string
	// Dead is the pool state machine's verdict (network unreachable);
	// Failed is the cluster-level disk state (content lost).
	Dead   bool
	Failed bool
	// Requests counts operations submitted to the backend, Retries the
	// extra attempts after transport failures, Dials the connections
	// opened, and Errors the operations that ultimately failed.
	Requests, Retries, Dials, Errors int64
}

// Health is a snapshot of cluster-wide service counters.
type Health struct {
	// ElementsRead/ElementsWritten count logical element operations.
	ElementsRead, ElementsWritten int64
	// DegradedReads counts element reads served from a replica because
	// the data disk was failed or unreachable.
	DegradedReads int64
	// ParityReads counts elements served as the XOR of their row's other
	// data and its parity because no copy could be read (mirror-with-
	// parity only) — user reads, write pre-reads and rebuild gathers.
	ParityReads int64
	// Failovers counts element fetches re-routed to another backend
	// after an I/O failure (as opposed to planned degraded routing).
	Failovers int64
	// AutoFailed counts disks marked failed by the write path after
	// their backend stopped accepting writes.
	AutoFailed int64
	// CRCReadErrors counts vectored reads whose payload failed its
	// CRC-32C at the client (WireCRC mode).
	CRCReadErrors int64
	// Rebuilds counts completed RebuildDisk runs; RebuildBytes and
	// RebuildSeconds accumulate across them, and RebuildMBps is their
	// ratio (0 before the first rebuild).
	Rebuilds       int64
	RebuildBytes   int64
	RebuildSeconds float64
	RebuildMBps    float64
	// Backends holds per-backend states and counters, sorted by role
	// then index.
	Backends []BackendHealth
}

// New builds a Volume over the given architecture with one blockserver
// backend address per disk. The architecture names the layout: its
// Placement decides where every copy lives, and a parity architecture
// adds the parity disk past the placement's disks. Every disk in
// arch.Disks() must have an address.
func New(arch *raid.Mirror, backends map[raid.DiskID]string, cfg Config) (*Volume, error) {
	if len(backends) != len(arch.Disks()) {
		return nil, fmt.Errorf("cluster: %d backend addresses for %d disks", len(backends), len(arch.Disks()))
	}
	return open(arch, cfg, func(v *Volume, slot int, id raid.DiskID) (backend, error) {
		addr, ok := backends[id]
		if !ok {
			return nil, fmt.Errorf("cluster: no backend address for disk %v", id)
		}
		return newPool(addr, v.cfg, &v.stats.perDisk[slot].pool, v.stats.pipe), nil
	})
}

// NewLocal builds a Volume over stores in this process, one per disk —
// the in-process block device. It is the volume New builds, every op
// planned the same way; only the last step differs: a slot's exchanges
// are applied straight to its store instead of crossing a socket. Each
// store must hold DiskSize bytes. Close closes the stores that hold a
// resource (files); on an error the stores stay the caller's. A failed
// disk is rebuilt in place: Fail, then RebuildDisk onto the same store.
func NewLocal[S blockserver.Store](arch *raid.Mirror, stores map[raid.DiskID]S, cfg Config) (*Volume, error) {
	if len(stores) != len(arch.Disks()) {
		return nil, fmt.Errorf("cluster: %d stores for %d disks", len(stores), len(arch.Disks()))
	}
	want := cfg.withDefaults()
	for _, id := range arch.Disks() {
		s, ok := stores[id]
		if !ok {
			return nil, fmt.Errorf("cluster: no store for disk %v", id)
		}
		if size := int64(want.Stripes) * int64(arch.N()) * want.ElementSize; s.Size() != size {
			return nil, fmt.Errorf("cluster: store for %v holds %d bytes, want %d", id, s.Size(), size)
		}
	}
	return open(arch, cfg, func(_ *Volume, _ int, id raid.DiskID) (backend, error) {
		return &localStore{name: "local:" + id.String(), store: stores[id]}, nil
	})
}

// open builds a volume whose slot k is served by the backend mk makes
// for disk ids[k], closing what it made if mk fails.
func open(arch *raid.Mirror, cfg Config, mk func(v *Volume, slot int, id raid.DiskID) (backend, error)) (*Volume, error) {
	cfg = cfg.withDefaults()
	if err := cfg.checkGeometry(arch.N()); err != nil {
		return nil, err
	}
	ids := arch.Disks()
	v := &Volume{
		arch:        arch,
		ids:         ids,
		n:           arch.N(),
		elementSize: cfg.ElementSize,
		stripes:     cfg.Stripes,
		cfg:         cfg,
		parity:      -1,
	}
	v.workers = fanout.New(len(ids)*cfg.PoolSize, v.runShareJob)
	copies := ids
	if arch.Parity() {
		v.parity, copies = len(ids)-1, ids[:len(ids)-1]
		for r := 0; r < v.n; r++ {
			v.parityLocs = append(v.parityLocs, location{id: ids[v.parity], slot: v.parity, row: r})
		}
	}
	var err error
	if v.table, err = newPlacementTable(arch.Placement(), copies); err != nil {
		return nil, err
	}
	v.stats.init(len(ids))
	if cfg.RebuildQoSSLO > 0 {
		v.qos = newQoSController(cfg, &v.stats)
	}
	st := &volState{slots: make([]slotState, len(ids))}
	v.state.Store(st)
	for slot, id := range ids {
		if st.slots[slot].be, err = mk(v, slot, id); err != nil {
			v.Close()
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		v.RegisterMetrics(cfg.Metrics)
	}
	return v, nil
}

// Close releases every backend — pooled connections, in-process stores
// that hold files — and the parked share workers: it publishes a closed
// state, which refuses further management operations, and closes the
// backends that state names. Operations in flight are not waited for —
// synchronous ones finish on the connections they hold, pipelined ones
// fail, and a share still running exits its worker when done — and
// calling Close again is harmless.
func (v *Volume) Close() {
	var bes []backend
	if v.update(func(next *volState) error {
		if next.closed {
			return errVolumeClosed
		}
		next.closed = true
		for _, s := range next.slots {
			if s.be != nil {
				bes = append(bes, s.be)
			}
		}
		return nil
	}) != nil {
		return
	}
	v.workers.Close()
	for _, b := range bes {
		b.close()
	}
}

// Size returns the logical capacity in bytes.
func (v *Volume) Size() int64 {
	return int64(v.stripes) * v.stripeBytes()
}

// stripeBytes is how many logical bytes one stripe holds.
func (v *Volume) stripeBytes() int64 {
	return int64(v.n) * int64(v.n) * v.elementSize
}

// DiskSize returns the per-disk capacity each backend must serve.
func (v *Volume) DiskSize() int64 {
	return int64(v.stripes) * int64(v.n) * v.elementSize
}

// Arch returns the underlying architecture.
func (v *Volume) Arch() *raid.Mirror { return v.arch }

// Verify dials every backend and checks it serves exactly one disk's
// worth of bytes, catching mis-wired address maps before data flows.
func (v *Volume) Verify() error {
	want := v.DiskSize()
	for slot, s := range v.state.Load().slots {
		var size int64
		err := s.be.doCtx(context.Background(), clientFunc(func(_ context.Context, c peer) error {
			var err error
			size, err = c.Size()
			return err
		}))
		if err != nil {
			return fmt.Errorf("cluster: backend %v (%s): %w", v.ids[slot], s.be.address(), err)
		}
		if size != want {
			return fmt.Errorf("cluster: backend %v (%s) serves %d bytes, want %d", v.ids[slot], s.be.address(), size, want)
		}
	}
	return nil
}

// elemAddr locates logical byte offset off (row-major elements within
// each stripe, the paper's numbering).
func (v *Volume) elemAddr(off int64) (stripe, disk, row int, inner int64) {
	elem := off / v.elementSize
	inner = off % v.elementSize
	perStripe := int64(v.n) * int64(v.n)
	stripe = int(elem / perStripe)
	idx := elem % perStripe
	row = int(idx / int64(v.n))
	disk = int(idx % int64(v.n))
	return stripe, disk, row, inner
}

// storeOffset is the byte offset of element (stripe, row) within a disk.
func (v *Volume) storeOffset(stripe, row int) int64 {
	return (int64(stripe)*int64(v.n) + int64(row)) * v.elementSize
}

// locations returns every physical home of data element (disk, row) in
// the given stripe: the primary copy first, then each replica in the
// placement's failover order. Under the shifted arrangement every copy
// is on a different backend than any other copy of the same disk's
// elements, which is what makes failover and one-pass rebuild fan out
// (Properties 1 and 2); under a pooled placement the homes also rotate
// per stripe. The result is a view into the placement table: callers
// must not modify it.
func (v *Volume) locations(stripe, disk, row int) []location {
	return v.table.locations(stripe, disk, row)
}

// spanLocs is where span s can be read: its element's locations, or for
// a parity span the parity disk's row.
func (v *Volume) spanLocs(s *span) []location {
	if s.disk < 0 {
		return v.parityLocs[s.row : s.row+1]
	}
	return v.locations(s.stripe, s.disk, s.row)
}

// slot maps a disk to its dense index; ok is false for a disk the
// architecture does not have. Only the management API resolves disks by
// id, so a scan of the (at most 3n) ids is all it takes.
func (v *Volume) slot(id raid.DiskID) (slot int, ok bool) {
	slot = slices.Index(v.ids, id)
	return slot, slot >= 0
}

// Fail declares a disk's content lost (its backend crashed, was wiped,
// or is being decommissioned). Service continues from replicas; the
// bytes are restored by RebuildDisk, optionally after ReplaceBackend
// points the disk at a fresh server. Fail publishes a state and
// returns: it waits for no I/O, and ops in flight finish against the
// state they planned on.
func (v *Volume) Fail(id raid.DiskID) error {
	slot, ok := v.slot(id)
	if !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	err := v.updateSlot(slot, func(s *slotState) error {
		if s.failed {
			return fmt.Errorf("%w: %v already failed", ErrDiskFailed, id)
		}
		s.failed, s.progress = true, 0
		return nil
	})
	if err == nil {
		v.trace(obs.Event{Op: "fail", Target: id.String()})
	}
	return err
}

// trace emits ev to the configured tracer, if any.
func (v *Volume) trace(ev obs.Event) {
	if v.cfg.Tracer != nil {
		v.cfg.Tracer.Trace(ev)
	}
}

// ReplaceBackend points a disk at a new (typically fresh) blockserver
// backend and closes the old one. The usual sequence for a lost machine is
// Fail → ReplaceBackend → RebuildDisk; on a failed disk the new backend
// is what makes it replacement-pending rather than dead.
//
// The swap happens under the write drain, so no write straddles it:
// those planned against the old backend have finished, later ones plan
// against the new. Reads are not waited for. One still holding the old
// state finishes on the connection it checked out (the pool closes it
// at check-in) or, pipelined, fails over to another copy. A rebuild
// slice in flight onto the old backend is discarded when it tries to
// publish, and the rebuild carries on from the restarted watermark.
func (v *Volume) ReplaceBackend(id raid.DiskID, addr string) error {
	slot, ok := v.slot(id)
	if !ok {
		return fmt.Errorf("cluster: unknown disk %v", id)
	}
	var old backend
	v.eachDrain(allDrains, (*sync.RWMutex).Lock)
	err := v.update(func(next *volState) error {
		if next.closed {
			return errVolumeClosed
		}
		s := &next.slots[slot]
		// The disk slot's counters carry over: replacing the machine does
		// not erase the disk's service history.
		old, s.be = s.be, newPool(addr, v.cfg, &v.stats.perDisk[slot].pool, v.stats.pipe)
		if s.failed {
			// Whatever an earlier rebuild recovered lives on the old backend:
			// the watermark starts over with the new one.
			s.replacement, s.progress = true, 0
		}
		return nil
	})
	v.eachDrain(allDrains, (*sync.RWMutex).Unlock)
	if err != nil {
		return err
	}
	old.close()
	v.trace(obs.Event{Op: "replace_backend", Target: id.String()})
	return nil
}

// Health returns a snapshot of cluster-wide and per-backend counters.
func (v *Volume) Health() Health {
	st := v.state.Load()
	h := Health{
		ElementsRead:    v.stats.elementsRead.Load(),
		ElementsWritten: v.stats.elementsWritten.Load(),
		DegradedReads:   v.stats.degradedReads.Load(),
		ParityReads:     v.stats.parityReads.Load(),
		Failovers:       v.stats.failovers.Load(),
		AutoFailed:      v.stats.autoFailed.Load(),
		CRCReadErrors:   v.stats.crcReadErrors.Load(),
		Rebuilds:        v.stats.rebuilds.Load(),
		RebuildBytes:    v.stats.rebuildBytes.Load(),
		RebuildSeconds:  float64(v.stats.rebuildNanos.Load()) / 1e9,
	}
	if h.RebuildSeconds > 0 {
		h.RebuildMBps = float64(h.RebuildBytes) / 1e6 / h.RebuildSeconds
	}
	for slot, s := range st.slots {
		ps := &v.stats.perDisk[slot].pool
		h.Backends = append(h.Backends, BackendHealth{
			ID:       v.ids[slot],
			Addr:     s.be.address(),
			Dead:     s.be.isDead(),
			Failed:   s.failed,
			Requests: ps.requests.Load(),
			Retries:  ps.retries.Load(),
			Dials:    ps.dials.Load(),
			Errors:   ps.errors.Load(),
		})
	}
	return h
}
