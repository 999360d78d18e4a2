package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shiftedmirror/internal/blockserver"
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
	// what the scatter learned. Nothing on the read path touches it. It is
	// striped by stripe range (drainSet): a write holds the buckets of the
	// stripes it writes. A rebuild slice takes its window's buckets
	// exclusively for an instant, after publishing the window, to wait out
	// the writes planned before the window existed that touch it — a write
	// elsewhere does not hold the slice up. ReplaceBackend holds every
	// bucket around its swap so no write straddles a backend change; the
	// slice that returns a disk to service publishes under every bucket
	// so no write planned against the failed disk is still in flight when
	// the disk turns healthy. Buckets are taken in index order. Order:
	// rmwMu, drain, stateMu.
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
// that hold files: it publishes a closed state, which refuses further
// management operations, and closes the backends that state names.
// Operations in flight are not waited for — synchronous ones finish on
// the connections they hold, pipelined ones fail — and calling Close
// again is harmless.
func (v *Volume) Close() {
	var bes []backend
	v.update(func(next *volState) error {
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
	})
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

// fetchKind says on whose behalf fetchSpans is running, which decides
// how served spans are attributed in the stats.
type fetchKind int

const (
	// fetchUser is a client read: spans served from a non-primary copy
	// count as degraded reads.
	fetchUser fetchKind = iota
	// fetchInternal is a fetch the volume makes for itself — the
	// read-modify-write pre-read of a WireCRC volume, the backup of a
	// hedged share: replica serving is routine, nothing extra is counted,
	// and it is never hedged.
	fetchInternal
	// fetchRebuild is a rebuild gather: every served span is credited
	// to the backend that sourced it, so the per-backend rebuild load
	// distribution (Properties 1/2) is observable on the wire.
	fetchRebuild
)

// fetchSpans serves every span in pl.spans from its first surviving
// location, failing over to later locations (replica backends) as
// backends fail. kind attributes the serving: degraded-read counting
// for user reads, per-backend source counting for rebuild gathers. Only
// user reads hedge (when enabled): rebuild gathers must keep their
// deterministic per-backend source attribution (the wire-measurable
// Properties 1/2). On a parity volume a span none of whose copies can be
// read is served from its row's parity instead (fetchXor).
//
// Each round loads the volume's state once into pl.st, routes the
// pending spans against it into per-backend shares and runs the shares
// concurrently — one of them on the calling goroutine, so a read that
// touches a single backend starts no goroutine at all. No lock is held:
// a round that raced a state change ran against the state it loaded —
// every copy that state calls available holds every acknowledged write
// — and the next round sees the new one. A pool swapped out and closed
// mid-round fails its share like any other backend trouble, and the
// spans fail over.
func (v *Volume) fetchSpans(ctx context.Context, pl *opPlan, kind fetchKind) error {
	pl.pending, pl.lost = pl.pending[:0], pl.lost[:0]
	for i := range pl.spans {
		pl.pending = append(pl.pending, int32(i))
	}
	for len(pl.pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		pl.st = v.state.Load()
		for _, si := range pl.pending {
			s := &pl.spans[si]
			locs := v.spanLocs(s)
			s.src = pl.st.nextLive(s.stripe, locs, s.src)
			if s.src == len(locs) {
				// Every location is exhausted. If the last copy died on a
				// checksum verdict the bytes exist but are rotten — that is
				// corruption, not data loss, and retrying other replicas
				// already happened (CRC failures fail over like any other).
				if blockserver.IsCRC(s.lastErr) {
					return fmt.Errorf("%w: every copy of %s failed its checksum", ErrScrubMismatch, s)
				}
				if s.disk < 0 && !pl.inXor {
					continue // a write's old parity: the write plans around it (foldParity)
				}
				if !v.xorable(pl, s) {
					return fmt.Errorf("%w: %s", ErrDataLoss, s)
				}
				pl.lost = append(pl.lost, si)
				continue
			}
			s.loc = locs[s.src]
			b := pl.backend(s.loc.slot)
			b.spans = append(b.spans, si)
		}
		if len(pl.active) == 0 {
			break // every pending span is left to parity
		}
		for _, slot := range pl.active[1:] {
			pl.wg.Add(1)
			go v.fetchBackend(ctx, pl, slot, kind, &pl.wg)
		}
		v.fetchBackend(ctx, pl, pl.active[0], kind, nil)
		pl.wg.Wait()
		pl.pending = pl.pending[:0]
		for _, slot := range pl.active {
			for _, si := range pl.backends[slot].failed {
				pl.spans[si].src++
				pl.pending = append(pl.pending, si)
			}
		}
		pl.clearRound()
		if err := ctx.Err(); err != nil {
			// Cancellation fails every in-flight share at once; without
			// this check the failover loop would burn through all replica
			// locations and misreport the cancel as data loss. Nor is a
			// cancelled span a failover — a hedge's losing backup ends here
			// every time — so those are counted only past this point.
			return err
		}
		v.stats.failovers.Add(int64(len(pl.pending)))
	}
	if len(pl.lost) > 0 {
		return v.fetchXor(ctx, pl, kind)
	}
	return nil
}

// fetchBackend gathers one backend's share of a fetch round in one
// exchange — hedged against the spans' next copies for user reads
// — and on error leaves the whole share in its failed list: the pool has
// already retried and possibly marked the backend dead, so the spans
// fail over together. How many wire frames the share takes is the wire
// client's business. done, when non-nil, is released on return (the
// share is running on its own goroutine).
func (v *Volume) fetchBackend(ctx context.Context, pl *opPlan, slot int, kind fetchKind, done *sync.WaitGroup) {
	if done != nil {
		defer done.Done()
	}
	b := &pl.backends[slot]
	b.xfer.begin(false)
	for _, si := range b.spans {
		s := &pl.spans[si]
		b.xfer.add(v.storeOffset(s.stripe, s.loc.row)+s.inner, s.buf)
	}
	if err := v.readBatch(ctx, slot, pl, b.spans, &b.xfer, kind); err != nil {
		for _, si := range b.spans {
			// Record why, so exhaustion can tell corruption from loss.
			pl.spans[si].lastErr = err
		}
		b.failed = append(b.failed, b.spans...)
		return
	}
	switch kind {
	case fetchUser:
		// Spans with src > 0 were routed to a replica because the primary
		// copy's disk was failed or dead.
		degraded := 0
		for _, si := range b.spans {
			if pl.spans[si].src > 0 {
				degraded++
			}
		}
		v.stats.degradedReads.Add(int64(degraded))
	case fetchRebuild:
		v.stats.perDisk[slot].rebuildReads.Add(int64(len(b.spans)))
	}
}

// ReadAt implements io.ReaderAt over the logical space, gathering
// element ranges per backend and failing over to replica backends for
// disks that are failed or unreachable. It is ReadAtCtx with
// context.Background(): no deadline, no cancellation — the pre-existing
// behaviour.
func (v *Volume) ReadAt(p []byte, off int64) (int, error) {
	return v.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with deadline and cancellation propagation: ctx
// follows the request into every pooled connection operation (slot
// waits, dials, retry backoff, and the wire exchange itself, which is
// interrupted mid-frame on cancel). When hedging is enabled, slow
// backends are raced against the spans' replica locations and the
// loser is cancelled. It is the one-piece case of ReadPiecesCtx.
func (v *Volume) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	size := v.Size()
	if off < 0 {
		return 0, fmt.Errorf("cluster: negative read offset %d", off)
	}
	if off >= size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	one := [1]Piece{{Buf: p[:n], Off: off}}
	if err := v.ReadPiecesCtx(ctx, one[:]); err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Piece is one range of a vectored volume op: Buf is read from, or
// written to, logical offset Off.
type Piece struct {
	Buf []byte
	Off int64
}

// errPieceOrder refuses a vectored op whose pieces could not run as one:
// they must come in ascending offset order, and no stripe may hold bytes
// of two of them — which keeps one parity op per row and one torn image
// per element.
var errPieceOrder = errors.New("cluster: pieces must ascend with no stripe shared by two")

// checkPieces refuses, before any I/O, a vectored op with a piece outside
// the volume or pieces that break errPieceOrder's rule; op names the op
// in the error. It returns how many bytes the pieces carry. An empty
// piece holds no stripe.
func (v *Volume) checkPieces(op string, pieces []Piece) (total int, err error) {
	size, stripeBytes := v.Size(), v.stripeBytes()
	next := int64(0) // where the stripe after the previous piece's last begins
	for i, pc := range pieces {
		if pc.Off < 0 || pc.Off > size-int64(len(pc.Buf)) {
			return 0, fmt.Errorf("cluster: %s of %d bytes at offset %d outside volume of %d bytes", op, len(pc.Buf), pc.Off, size)
		}
		if len(pc.Buf) == 0 {
			continue
		}
		if pc.Off < next {
			return 0, fmt.Errorf("%w: piece %d at offset %d", errPieceOrder, i, pc.Off)
		}
		end := pc.Off + int64(len(pc.Buf))
		next = (end + stripeBytes - 1) / stripeBytes * stripeBytes
		total += len(pc.Buf)
	}
	return total, nil
}

// ReadPiecesCtx fills every piece from the volume in one op: the pieces'
// elements are planned into one plan and served by one fetchSpans, so
// each backend they touch gets one exchange for all of them — where a
// ReadAtCtx per piece would cost a plan, a fan-out round and an exchange
// per backend each. A sharded volume hands a group all of a request's
// segments this way. Pieces must lie inside the volume, come in
// ascending offset order and share no stripe; anything else is refused
// before any I/O. The op succeeds or fails as a whole.
func (v *Volume) ReadPiecesCtx(ctx context.Context, pieces []Piece) error {
	if _, err := v.checkPieces("read", pieces); err != nil {
		return err
	}
	start := time.Now()
	defer func() { v.stats.readLat.Observe(time.Since(start)) }()
	pl := v.getPlan()
	defer v.putPlan(pl)
	for _, pc := range pieces {
		for at := 0; at < len(pc.Buf); {
			stripe, disk, row, inner := v.elemAddr(pc.Off + int64(at))
			chunk := int(min(v.elementSize-inner, int64(len(pc.Buf)-at)))
			pl.spans = append(pl.spans, span{
				stripe: stripe, disk: disk, row: row,
				inner: inner, buf: pc.Buf[at : at+chunk],
			})
			at += chunk
		}
	}
	v.stats.elementsRead.Add(int64(len(pl.spans)))
	return v.fetchSpans(ctx, pl, fetchUser)
}

// WriteAt implements io.WriterAt over the logical space, fanning each
// element out to its data disk and every replica backend concurrently
// (a row write lands on all 2n backends in one parallel access —
// Property 3 over the network). A backend that stops accepting writes
// is auto-failed: its disk drops out and redundancy carries the data.
// It is WriteAtCtx with context.Background().
func (v *Volume) WriteAt(p []byte, off int64) (int, error) {
	return v.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx is WriteAt with deadline and cancellation propagation.
// A cancelled write returns ctx's error; replicas that were reached
// before the cancel keep the bytes (the write is not rolled back), and
// backends whose op was cancelled are not auto-failed — cancellation
// says nothing about their health.
//
// A write that covers only part of an element ships exactly that range
// to every available copy, straight from p: a mirror needs no old bytes
// to stay consistent (the paper's P3 — a write is one parallel access),
// so there is no pre-read. The atomic unit of a write is therefore the
// written range per copy: concurrent writes to disjoint ranges never
// disturb each other, even inside one element.
//
// WireCRC volumes are the one exception. The server keeps one
// write-time checksum per element-sized store block, and can only
// publish it for a write that covers the whole block — an unaligned
// range leaves the block's entry invalid, which would silently drop the
// element out of end-to-end coverage (reads would carry a checksum
// computed from whatever the store returns, rot included). So there a
// torn first or last element is still read, patched and written back
// whole, every wire range stays exactly one sidecar block, and rmwMu
// keeps two such patches of one element from overwriting each other.
// Mirror-with-parity volumes read before they write too: each written
// row's parity range becomes old ⊕ new ⊕ old-parity (see parity.go), so
// there every write holds rmwMu.
//
// Locking: a write holds the write drain's buckets of the stripes it
// writes, shared, from loading the state it plans against until it has
// settled what its fan-out learned, and no other lock but rmwMu when it
// pre-reads — so plain writes block neither readers nor each other, and
// only the drain of a rebuild slice whose window shares a bucket with
// it, ReplaceBackend and the slice returning a disk to service ever wait
// for them. A write with a copy on a rebuilding disk inside a slice's
// in-flight window [s0, s1) lets go of the drain (and rmwMu, which the
// slice may need for its own XOR), waits for that slice and starts over
// — pre-read included — against the state it leaves; writes elsewhere —
// other elements of the same stripes included — proceed. Together with
// the slice's drain this gives the invariant a rebuild relies on: a
// write is acknowledged only when every copy that any later state can
// call available holds its bytes, and at least one copy — or, on a
// parity volume, its row's parity op — took them. It either wrote
// the replacement itself (stripe below the watermark it planned
// against; if that share failed, settleWrites pulled the watermark back
// before the acknowledgement), or finished before the slice covering
// its stripe began gathering (the drain), or waited for that slice (the
// fence). Writers running concurrently means overlapping WriteAt calls
// race exactly as they do on a raw block device: each range lands
// atomically per copy, but which writer's bytes survive — per replica —
// is unordered, so callers that overlap writes must serialize
// themselves (see DESIGN.md §11; TestConcurrentWriters documents the
// semantics). It is the one-piece case of WritePiecesCtx.
func (v *Volume) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	one := [1]Piece{{Buf: p, Off: off}}
	if err := v.WritePiecesCtx(ctx, one[:]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WritePiecesCtx writes every piece in one op, each with WriteAtCtx's
// semantics: one drain hold, one plan, one packed scatter per backend
// for all of them and one settling of what the fan-out learned — on a
// parity or WireCRC volume one pre-read too, under one hold of rmwMu —
// where a WriteAtCtx per piece would pay each of those per piece. The
// pieces' elements are numbered across the op, so an element that
// reached no backend is named by its place in the whole write. Pieces
// must lie inside the volume, come in ascending offset order and share
// no stripe; anything else is refused before any I/O. On error, the
// pieces' bytes may have reached some copies and not others, as with
// WriteAtCtx.
func (v *Volume) WritePiecesCtx(ctx context.Context, pieces []Piece) error {
	total, err := v.checkPieces("write", pieces)
	if err != nil || total == 0 {
		return err
	}
	start := time.Now()
	defer func() { v.stats.writeLat.Observe(time.Since(start)) }()
	pl := v.getPlan()
	defer v.putPlan(pl)
	rmw := false
	if v.cfg.WireCRC {
		v.tornElements(pieces, func(int64, Piece) { rmw = true })
	}
	pl.rmwHeld = rmw || v.parity >= 0
	drains := v.piecesDrains(pieces)
	var elems int
	for {
		if pl.rmwHeld {
			// The pre-read is a read: it runs before the drain is taken, so a
			// slice's drain never waits on a paced disk. rmwMu alone keeps
			// what it read current until the write lands.
			v.rmwMu.Lock()
			if err := v.preRead(ctx, pl, pieces, total, rmw); err != nil {
				v.rmwMu.Unlock()
				return err
			}
		}
		v.eachDrain(drains, (*sync.RWMutex).RLock)
		pl.st = v.state.Load()
		var fence *window
		if elems, fence = v.planWrite(pl, pieces, rmw); fence == nil {
			break
		}
		v.eachDrain(drains, (*sync.RWMutex).RUnlock)
		pl.clearRound()
		if pl.rmwHeld {
			v.rmwMu.Unlock()
		}
		select {
		case <-fence.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err = v.runWrites(ctx, pl, elems)
	autoFailed := v.settleWrites(pl)
	v.eachDrain(drains, (*sync.RWMutex).RUnlock)
	if pl.rmwHeld {
		v.rmwMu.Unlock()
	}
	for _, slot := range autoFailed {
		v.stats.autoFailed.Inc()
		v.trace(obs.Event{Op: "auto_fail", Target: v.ids[slot].String()})
	}
	// An element counts as written only once it reached at least one
	// backend; cancelled or all-failed fan-outs do not inflate the
	// counter.
	written, lost := 0, -1
	for i, n := range pl.succeeded {
		if n > 0 {
			written++
		} else if lost < 0 {
			lost = i
		}
	}
	v.stats.elementsWritten.Add(int64(written))
	if err != nil {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled mid-fan-out: report the cancel, not data loss — the
		// missing replicas were never attempted, not lost.
		return cerr
	}
	if lost >= 0 {
		return fmt.Errorf("%w: element %d of write at %d reached no backend", ErrDataLoss, lost, pieces[0].Off)
	}
	return nil
}

// planWrite routes the write of the pieces into pl's per-backend shares
// against pl.st: every element's written range to every copy pl.st
// calls available (redundancy carries the others until a rebuild
// catches up), plus, on a parity volume, each written row's parity op
// (planParity). It returns the number of elements planned — or, with the
// plan left partial, the fence of the first copy found inside a rebuild
// slice's in-flight window, which the caller waits out before starting
// over. rmw says torn elements travel as the whole images preRead left
// in the plan, which it carved in the order met here (tornElements).
func (v *Volume) planWrite(pl *opPlan, pieces []Piece, rmw bool) (elems int, fence *window) {
	es := v.elementSize
	torn := 0
	pl.broken = pl.broken[:0]
	for _, pc := range pieces {
		for at := 0; at < len(pc.Buf); {
			stripe, disk, row, inner := v.elemAddr(pc.Off + int64(at))
			chunk := int(min(es-inner, int64(len(pc.Buf)-at)))
			data := pc.Buf[at : at+chunk]
			if rmw && int64(chunk) != es {
				data, inner = pl.tornElement(torn, es), 0
				torn++
			}
			for _, loc := range v.locations(stripe, disk, row) {
				if !pl.st.available(loc.slot, stripe) {
					if w := pl.st.fence(loc.slot, stripe); w != nil {
						return 0, w
					}
					continue
				}
				b := pl.backend(loc.slot)
				b.ops = append(b.ops, writeOp{
					off: v.storeOffset(stripe, loc.row) + inner, data: data,
					elem: int32(elems), stripe: int32(stripe),
				})
			}
			elems++
			at += chunk
		}
	}
	if v.parity >= 0 {
		return elems, v.planParity(pl)
	}
	return elems, nil
}

// tornElements calls f with the logical start of every element the
// pieces cover only partly, and the piece covering it, in the order
// planWrite meets them: per piece, the head element when the piece
// starts inside it or ends before its end, then the tail element when
// the piece ends inside it and it is not the head again. Under WireCRC
// each is read, patched and written back whole.
func (v *Volume) tornElements(pieces []Piece, f func(elem int64, pc Piece)) {
	es := v.elementSize
	for _, pc := range pieces {
		if len(pc.Buf) == 0 {
			continue
		}
		end := pc.Off + int64(len(pc.Buf))
		head, tail := pc.Off-pc.Off%es, end-end%es
		if pc.Off != head || end < head+es {
			f(head, pc)
		}
		if end != tail && tail > head {
			f(tail, pc)
		}
	}
}

// preRead fetches, in one gather, what the write of the pieces (total
// bytes) must know before it can plan: with rmw, the current image of
// each element a piece covers only partly — at most its first and its
// last — patched with the piece's bytes so the WireCRC write path can
// ship whole elements; on a parity volume, the old bytes under every
// range it writes and under each written row's parity range, folded into
// the row's new parity (stageParity, foldParity). An unaligned write pays
// one round trip per involved backend, not one per torn edge. Call with
// v.rmwMu held.
func (v *Volume) preRead(ctx context.Context, pl *opPlan, pieces []Piece, total int, rmw bool) error {
	es := v.elementSize
	if rmw {
		images := 0
		v.tornElements(pieces, func(int64, Piece) { images++ })
		pl.torn = grow(pl.torn, images*int(es))
		k := 0
		v.tornElements(pieces, func(at int64, _ Piece) {
			stripe, disk, row, _ := v.elemAddr(at)
			pl.spans = append(pl.spans, span{stripe: stripe, disk: disk, row: row, buf: pl.tornElement(k, es)})
			k++
		})
	}
	if v.parity >= 0 {
		v.stageParity(pl, pieces, total)
	}
	err := v.fetchSpans(ctx, pl, fetchInternal)
	if err == nil && v.parity >= 0 {
		v.foldParity(pl, pieces)
	}
	clear(pl.spans)
	pl.spans = pl.spans[:0]
	if err != nil {
		return err
	}
	if rmw {
		k := 0
		v.tornElements(pieces, func(at int64, pc Piece) {
			lo := max(at, pc.Off)
			copy(pl.tornElement(k, es)[lo-at:], pc.Buf[lo-pc.Off:])
			k++
		})
	}
	return nil
}

// runWrites ships every backend's share of write ops, each as one
// packed scatter exchange (see packScatter), so a full-stripe write
// costs one round trip per replica backend instead of one per element
// copy. The shares run concurrently, one of them on the calling
// goroutine, so a write to a single backend starts no goroutine.
//
// It fills pl.succeeded (per element, the backends that took it; a
// row's parity op counts for every element of the row, see credit) and
// pl.broken: the backends whose transport failed (candidates for
// auto-fail), each with the lowest stripe among its ops (so callers can
// roll a rebuild watermark back past every missed write). It returns
// the first remote (store-level) error, which indicates a logic problem
// rather than a dead machine. A transport-failed scatter credits none
// of its ops — the server may have applied a prefix, but the client
// cannot know which, so the rollback covers the whole share. A scatter
// answered with a remote error credits exactly the ops whose ranges
// precede the failed index. Ops that fail because ctx was cancelled
// are not remote errors and never mark a healthy backend broken (no
// auto-fail from a caller's cancel); on a disk mid-rebuild, though, a
// cancelled share was bound below the watermark and may have left the
// rebuilt copy behind the others, so it is recorded as a roll-back of
// the watermark and nothing more.
//
// The shares go to the pools of pl.st, the state the ops were planned
// against. A user write holds the write drain across the call, so
// ReplaceBackend cannot swap a pool under its fan-out; a rebuild
// slice's write-back holds nothing and validates when it publishes.
func (v *Volume) runWrites(ctx context.Context, pl *opPlan, elems int) error {
	if cap(pl.succeeded) < elems {
		pl.succeeded = make([]int32, elems)
	}
	pl.succeeded = pl.succeeded[:elems]
	clear(pl.succeeded)
	if len(pl.active) == 0 {
		return nil // every copy of every element is on a failed disk
	}
	for _, slot := range pl.active[1:] {
		pl.wg.Add(1)
		go v.sendScatter(ctx, pl, slot, &pl.wg)
	}
	v.sendScatter(ctx, pl, pl.active[0], nil)
	pl.wg.Wait()
	var firstRemote error
	for _, slot := range pl.active {
		b := &pl.backends[slot]
		switch err := b.xfer.err; {
		case err == nil:
			for _, op := range b.ops {
				pl.credit(op)
			}
		case blockserver.IsRemote(err):
			// Ranges before the failed index are durable: credit
			// their ops, surface the store error.
			for _, op := range b.ops {
				if int(op.vec) < b.xfer.applied {
					pl.credit(op)
				}
			}
			if firstRemote == nil {
				firstRemote = fmt.Errorf("cluster: backend %v: %w", v.ids[slot], err)
			}
		case ctx.Err() != nil && !pl.st.slots[slot].failed:
			// Cancelled, not broken: the caller reports ctx's error.
		default:
			// Transport trouble, or a cancel that cut off a rebuilding
			// disk's share: nothing from this scatter may be credited,
			// and the watermark must roll back to the lowest stripe in
			// the share.
			low := b.ops[0].stripe
			for _, op := range b.ops[1:] {
				low = min(low, op.stripe)
			}
			pl.broken = append(pl.broken, brokenBackend{slot, int(low), ctx.Err() != nil})
		}
	}
	return firstRemote
}

// sendScatter packs and sends one backend's share of a write. done,
// when non-nil, is released on return (the share is running on its own
// goroutine).
func (v *Volume) sendScatter(ctx context.Context, pl *opPlan, slot int, done *sync.WaitGroup) {
	if done != nil {
		defer done.Done()
	}
	b := &pl.backends[slot]
	v.packScatter(b)
	v.stats.writeBatches.Inc()
	v.stats.writeBatchElements.Add(int64(len(b.ops)))
	b.xfer.err = pl.st.slots[slot].be.doCtx(ctx, &b.xfer)
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

// ScrubReport summarizes a Scrub pass's coverage, so "clean" can be told
// apart from "compared nothing".
type ScrubReport struct {
	// ElementsCompared counts replica elements checked against their
	// data element.
	ElementsCompared int64
	// ChecksumCompared is the subset of ElementsCompared verified by
	// CRC-32C comparison (the WireCRC OpCrcV fast path, which ships 4
	// bytes per element instead of the element itself). The server
	// recomputes each checksum from the store, so silent rot is still
	// caught; only identical corruption of both copies can hide.
	ChecksumCompared int64
	// Skipped lists disks whose content went (at least partly)
	// unverified: failed disks awaiting rebuild, and backends that were
	// unreachable for at least one stripe batch.
	Skipped []raid.DiskID
}

// readStore reads one backend's bytes at store offset off.
func (v *Volume) readStore(ctx context.Context, b backend, buf []byte, off int64) error {
	return b.doCtx(ctx, clientFunc(func(ctx context.Context, c peer) error {
		_, err := c.ReadAtCtx(ctx, buf, off)
		return err
	}))
}

// readStoreCRCs fetches the CRC-32C of the len(out)/4 consecutive
// elements starting at store offset off on one backend, four big-endian
// bytes per element.
func (v *Volume) readStoreCRCs(ctx context.Context, b backend, out []byte, off int64) error {
	vecs := make([]blockserver.Vec, len(out)/4)
	for i := range vecs {
		vecs[i] = blockserver.Vec{Off: off + int64(i)*v.elementSize, Len: int(v.elementSize)}
	}
	sums := make([]uint32, len(vecs))
	err := b.doCtx(ctx, clientFunc(func(ctx context.Context, c peer) error {
		return c.CrcV(ctx, vecs, sums)
	}))
	if err != nil {
		return err
	}
	for i, sum := range sums {
		binary.BigEndian.PutUint32(out[4*i:], sum)
	}
	return nil
}

// scrubBatch verifies stripes [s0, s1): one gather per available disk
// of a digest of each of its elements — with crc the element's CRC-32C
// (one OpCrcV per disk, 4 bytes per element on the wire, recomputed
// server-side so rot is still caught), without it the element itself —
// then every replica's digest compared against its data element's. It
// reports done=false, with nothing counted, when a backend answers
// ErrNoCRC, so the pass can redo the batch byte-for-byte. skipped is
// indexed by slot. The whole batch — which disks to gather, which of
// their stripes count — is decided against st, one state loaded by the
// caller.
func (v *Volume) scrubBatch(ctx context.Context, st *volState, report *ScrubReport, skipped []bool, s0, s1 int, crc bool) (done bool, err error) {
	width, how := v.elementSize, "" // digest bytes per element
	if crc {
		width, how = 4, " (checksum)"
	}
	elems := int64(s1-s0) * int64(v.n)
	digests := make([][]byte, len(v.ids)) // nil: not gathered
	var mu sync.Mutex
	var wg sync.WaitGroup
	var remoteErr error
	noCRC := false
	for slot := range v.ids {
		if !st.available(slot, s1-1) && !st.available(slot, s0) {
			skipped[slot] = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, elems*width)
			read := v.readStore
			if crc {
				read = v.readStoreCRCs
			}
			err := read(ctx, st.slots[slot].be, buf, v.storeOffset(s0, 0))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				digests[slot] = buf
			case errors.Is(err, blockserver.ErrNoCRC):
				noCRC = true
			case blockserver.IsRemote(err):
				if remoteErr == nil {
					remoteErr = fmt.Errorf("cluster: scrub read%s on %v: %w", how, v.ids[slot], err)
				}
			default:
				skipped[slot] = true // unreachable: skip, like a failed disk
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if noCRC {
		return false, nil
	}
	if remoteErr != nil {
		return false, remoteErr
	}
	for stripe := s0; stripe < s1; stripe++ {
		// digest is loc's element digest, nil when its disk was not
		// gathered or does not hold this stripe yet.
		digest := func(loc location) []byte {
			d := digests[loc.slot]
			if d == nil || !st.available(loc.slot, stripe) {
				return nil
			}
			at := (int64(stripe-s0)*int64(v.n) + int64(loc.row)) * width
			return d[at : at+width]
		}
		for disk := 0; disk < v.n; disk++ {
			for row := 0; row < v.n; row++ {
				locs := v.locations(stripe, disk, row)
				want := digest(locs[0])
				if want == nil {
					continue
				}
				for _, loc := range locs[1:] {
					got := digest(loc)
					if got == nil {
						continue
					}
					if !bytes.Equal(want, got) {
						return false, fmt.Errorf("%w: %v of data[%d] stripe %d row %d%s",
							ErrScrubMismatch, loc.id, disk, stripe, row, how)
					}
					report.ElementsCompared++
					if crc {
						report.ChecksumCompared++
					}
				}
			}
		}
		if v.parity >= 0 {
			if err := v.scrubParity(stripe, digest, report); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// Scrub streams every healthy disk's content stripe-batch by
// stripe-batch and verifies each replica against its data element, and
// on a parity volume each row's parity against the XOR of its data,
// returning ErrScrubMismatch (wrapped with the first divergence) on
// inconsistency. Store-level (remote) read errors are returned — they
// mean a misconfigured backend, not a dead one. Disks that are failed or
// whose backend is unreachable are skipped, listed in the report, and
// surfaced as a wrapped ErrDegraded alongside the (still valid) report:
// the pass compared what it could, but "clean" cannot be claimed for
// the whole volume. ctx cancels the pass between reads and mid-frame.
//
// With Config.WireCRC the pass compares checksums instead of bytes:
// each batch ships one OpCrcV per disk (4 bytes per element on the
// wire, recomputed server-side so rot is still caught) rather than the
// disks' full content. A backend that did not negotiate the CRC
// feature flips the whole pass back to byte comparison — mixing modes
// across batches would make coverage claims incoherent. A parity volume
// always compares bytes: a row's parity is checked against the XOR of
// its data, and checksums do not XOR.
//
// The pass runs from stripe 0 at full speed; see scrubPass for how it
// shares the volume with user I/O, and ScrubOnline for the throttled,
// resumable form.
func (v *Volume) Scrub(ctx context.Context) (ScrubReport, error) {
	return v.scrubPass(ctx, false)
}

// scrubFinish closes out a completed pass:
// lists the skipped slots in the report (slot order is role-then-index
// order), rolls the counters, and decides the degraded verdict.
func (v *Volume) scrubFinish(report *ScrubReport, skipped []bool) error {
	for slot, skip := range skipped {
		if skip {
			report.Skipped = append(report.Skipped, v.ids[slot])
		}
	}
	v.stats.scrubs.Inc()
	v.stats.scrubElements.Add(report.ElementsCompared)
	v.stats.scrubCRCElements.Add(report.ChecksumCompared)
	v.stats.scrubSkipped.Add(int64(len(report.Skipped)))
	v.trace(obs.Event{Op: "scrub", Bytes: report.ElementsCompared * v.elementSize})
	if len(report.Skipped) > 0 {
		return fmt.Errorf("%w: scrub skipped %d of %d disks", ErrDegraded, len(report.Skipped), len(v.ids))
	}
	return nil
}
