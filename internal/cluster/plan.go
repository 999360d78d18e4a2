package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// location is one physical home of a data element: the backend slot
// (the dense index into the volume's per-disk state), the disk that
// slot serves, and the row the element occupies there.
type location struct {
	id   raid.DiskID
	slot int
	row  int
}

// placementTable is the volume's layout.Placement flattened at New: every
// element's copies already resolved to (backend slot, row) in the
// placement's Copies order — the failover order hedging, degraded-read
// counting and layout.RebuildSources all rely on — plus the Owner
// inverse the rebuild gather needs. A placement depends on the stripe
// only modulo Period, so Period × n × n entries cover the whole volume
// and the data path never calls into the placement (each Copies call
// allocates a slice).
type placementTable struct {
	n, width, copies, period int
	// locs[((phase*n+disk)*n+row)*copies+c] is copy c of data element
	// (disk, row) in stripes congruent to phase.
	locs []location
	// owners[(phase*width+slot)*n+row] is the data element stored in
	// (slot, row) of those stripes.
	owners []layout.Addr
}

// newPlacementTable flattens p over the disks ids (ids[slot] is the disk
// serving pool-disk index slot). A placement whose Copies disagree on
// the replication factor or point outside the pool is rejected: the
// table is indexed without bounds checks on the data path.
func newPlacementTable(p layout.Placement, ids []raid.DiskID) (*placementTable, error) {
	n, width, period := p.N(), p.Width(), p.Period()
	if period < 1 {
		return nil, fmt.Errorf("cluster: placement reports period %d", period)
	}
	if width != len(ids) {
		return nil, fmt.Errorf("cluster: placement spans %d pool disks, volume has %d", width, len(ids))
	}
	t := &placementTable{n: n, width: width, period: period}
	for phase := 0; phase < period; phase++ {
		for disk := 0; disk < n; disk++ {
			for row := 0; row < n; row++ {
				slots := p.Copies(int64(phase), layout.Addr{Disk: disk, Row: row})
				if t.copies == 0 {
					t.copies = len(slots)
				}
				if len(slots) == 0 || len(slots) != t.copies {
					return nil, fmt.Errorf("cluster: placement gives data[%d] row %d %d copies in stripe %d, others %d",
						disk, row, len(slots), phase, t.copies)
				}
				for _, s := range slots {
					if s.Disk < 0 || s.Disk >= width || s.Row < 0 || s.Row >= n {
						return nil, fmt.Errorf("cluster: placement puts data[%d] row %d at slot %+v, outside %d disks × %d rows",
							disk, row, s, width, n)
					}
					t.locs = append(t.locs, location{id: ids[s.Disk], slot: s.Disk, row: s.Row})
				}
			}
		}
		for slot := 0; slot < width; slot++ {
			for row := 0; row < n; row++ {
				a, _ := p.Owner(int64(phase), layout.Slot{Disk: slot, Row: row})
				if a.Disk < 0 || a.Disk >= n || a.Row < 0 || a.Row >= n {
					return nil, fmt.Errorf("cluster: placement says slot %d row %d holds element %+v, outside n=%d", slot, row, a, n)
				}
				t.owners = append(t.owners, a)
			}
		}
	}
	return t, nil
}

// locations returns every copy of data element (disk, row) in the given
// stripe, primary first, as a view into the table.
func (t *placementTable) locations(stripe, disk, row int) []location {
	i := (((stripe%t.period)*t.n+disk)*t.n + row) * t.copies
	return t.locs[i : i+t.copies : i+t.copies]
}

// owner returns the data element stored in (slot, row) of the stripe.
func (t *placementTable) owner(stripe, slot, row int) layout.Addr {
	return t.owners[((stripe%t.period)*t.width+slot)*t.n+row]
}

// span is one contiguous byte range within one data element — or, with
// disk < 0, within a row's parity element — routed to its src-th
// surviving location. The fetch engine advances src on failover until
// the range is served or every location is exhausted.
type span struct {
	stripe, disk, row int   // data-array element address (disk < 0: the row's parity)
	inner             int64 // byte offset within the element
	buf               []byte
	src               int      // index into the element's location list
	loc               location // chosen location for the current round
	// lastErr is the error that failed the span's most recent location,
	// kept so exhaustion can be diagnosed: every copy failing its CRC is
	// corruption (ErrScrubMismatch), not data loss.
	lastErr error
}

// String names the span's element for an error message.
func (s *span) String() string {
	if s.disk < 0 {
		return fmt.Sprintf("parity stripe %d row %d", s.stripe, s.row)
	}
	return fmt.Sprintf("data[%d] stripe %d row %d", s.disk, s.stripe, s.row)
}

// writeOp is one store write bound for a backend: a whole element copy,
// or the written sub-range of one, or a row's parity range.
type writeOp struct {
	off    int64
	data   []byte
	elem   int32 // index of the logical element this op replicates; a row's parity op: -1 - the row's index in the plan's rows
	stripe int32 // stripe the element belongs to, for watermark rollback
	vec    int32 // index in the share's xfer.vecs of the wire range carrying it
}

// vecOp is one vectored exchange with a backend and its outcome. It
// lives inside the op plan and is handed to pool.doCtx by pointer.
type vecOp struct {
	write   bool // scatter from bufs; else gather into bufs, or with sums checksum
	vecs    []blockserver.Vec
	bufs    [][]byte
	sums    []uint32 // non-nil: fetch each range's CRC-32C here (OpCrcV), moving no bytes
	applied int      // leading ranges the server applied (write modes)
	err     error    // the exchange's final verdict, set by whoever ran it
}

func (o *vecOp) run(ctx context.Context, c peer) error {
	switch {
	case o.write:
		n, err := c.WriteVCtx(ctx, o.vecs, o.bufs)
		o.applied = n
		return err
	case o.sums != nil:
		return c.CrcV(ctx, o.vecs, o.sums)
	default:
		return c.ReadVCtx(ctx, o.vecs, o.bufs)
	}
}

// backendPlan is one backend's share of an op and the one exchange
// (xfer) it travels as; how many wire frames that takes is the wire
// client's business. Exactly one goroutine works on a backendPlan at a
// time.
type backendPlan struct {
	// Read side: the spans routed here this round (indices into
	// opPlan.spans), gathered by xfer in the same order.
	spans []int32

	// Write side: the element copies bound here, sorted and laid out as
	// wire ranges by packScatter.
	ops []writeOp

	xfer vecOp
}

// begin empties the exchange for a new share, keeping its range arrays'
// capacity and dropping their references to caller memory.
func (o *vecOp) begin(write bool) {
	clear(o.bufs)
	*o = vecOp{write: write, vecs: o.vecs[:0], bufs: o.bufs[:0]}
}

// add appends one wire range and the buffer it moves.
func (o *vecOp) add(off int64, buf []byte) {
	o.vecs = append(o.vecs, blockserver.Vec{Off: off, Len: len(buf)})
	o.bufs = append(o.bufs, buf)
}

// brokenBackend is a backend whose share of a write did not land, with
// the lowest stripe among the ops it missed. cancelled says the share
// was cut off by the caller's cancellation rather than by transport
// trouble: grounds to roll a rebuild watermark back, never to fail the
// disk.
type brokenBackend struct {
	slot, stripe int
	cancelled    bool
}

// opPlan is the scratch one read, write or rebuild slice plans and runs
// from. Plans are pooled per volume and every slice in one keeps its
// capacity, so a steady-state op allocates nothing here.
type opPlan struct {
	// st is the volume state the current round (reads) or the whole
	// fan-out (writes) is routed against; dropped when the plan is
	// recycled so a pooled plan pins no retired state or pool.
	st *volState

	spans    []span
	pending  []int32 // spans awaiting service, by index
	lost     []int32 // spans no copy of which could be read, left to parity
	backends []backendPlan
	active   []int // slots with work in the current round, in first-use order
	wg       sync.WaitGroup

	// rmwHeld says the op holds rmwMu whenever it fetches (a pre-reading
	// write, a parity gather), so a fallback to parity must not take it
	// again; inXor marks the plan of such a fallback's own gather, where
	// an element with no copy left is lost for good.
	rmwHeld, inXor bool

	// torn holds the element images a WireCRC write read-modify-writes
	// (at most the first and last element of each piece), side by side.
	torn []byte

	// A write on a parity volume: the old bytes under its pieces (parallel
	// to them laid end to end), and the rows it touches with their parity
	// ranges, carved from parity.
	old, parity []byte
	rows        []parityRow

	// mates is an XOR's sub-plan scratch: the row-mates' bytes (fetchXor).
	mates []byte

	succeeded []int32 // per written element: backends that took it
	broken    []brokenBackend
}

func (v *Volume) getPlan() *opPlan {
	if pl, ok := v.plans.Get().(*opPlan); ok {
		return pl
	}
	return &opPlan{backends: make([]backendPlan, len(v.ids))}
}

// putPlan recycles a plan, dropping its references to caller memory.
func (v *Volume) putPlan(pl *opPlan) {
	pl.reset()
	v.plans.Put(pl)
}

// reset empties the plan for its next op (or rebuild slice).
func (pl *opPlan) reset() {
	pl.st = nil
	pl.clearRound()
	clear(pl.spans)
	pl.spans = pl.spans[:0]
	pl.broken = pl.broken[:0]
	pl.rmwHeld, pl.inXor = false, false
	clear(pl.rows)
	pl.rows = pl.rows[:0]
}

// credit counts a landed op toward its element — a row's parity op
// toward every element of the row the write covers, which it makes
// durable whatever became of their copies.
func (pl *opPlan) credit(op writeOp) {
	if op.elem >= 0 {
		pl.succeeded[op.elem]++
		return
	}
	r := &pl.rows[-1-op.elem]
	for e := r.first; e < r.end; e++ {
		pl.succeeded[e]++
	}
}

// clearRound empties every active backend's share.
func (pl *opPlan) clearRound() {
	for _, slot := range pl.active {
		b := &pl.backends[slot]
		b.spans = b.spans[:0]
		clear(b.ops)
		b.ops = b.ops[:0]
		b.xfer.begin(false)
	}
	pl.active = pl.active[:0]
}

// backend returns slot's share of the current round, marking the slot
// active on first use. Callers add work to what they get back.
func (pl *opPlan) backend(slot int) *backendPlan {
	b := &pl.backends[slot]
	if len(b.spans) == 0 && len(b.ops) == 0 && len(b.xfer.vecs) == 0 {
		pl.active = append(pl.active, slot)
	}
	return b
}

// fanOut is the one fan-out every round goes through — a read's fetch, a
// write's scatter, a rebuild or scrub batch's gather: it runs the shares
// of the slots in pl.active concurrently, the first on the calling
// goroutine (a round that touches one backend hands nothing off) and
// every other on one of the volume's share workers, and waits for them
// all, each share's verdict left in its xfer.err. A hand-off never
// waits for a worker (fanout.Workers.Go), so a share never queues behind
// another op's — a paced rebuild gather's included.
func (v *Volume) fanOut(ctx context.Context, pl *opPlan, kind fetchKind) {
	pl.wg.Add(len(pl.active) - 1)
	for _, slot := range pl.active[1:] {
		v.workers.Go(shareJob{ctx: ctx, pl: pl, slot: slot, kind: kind})
	}
	v.runShare(ctx, pl, pl.active[0], kind)
	pl.wg.Wait()
}

// shareJob is one share of a round handed to a share worker: a value
// naming the share, not a closure, so the hand-off allocates nothing.
type shareJob struct {
	ctx  context.Context
	pl   *opPlan
	slot int
	kind fetchKind
}

// runShareJob is the share workers' job: run the share, then tell the
// round it is done.
func (v *Volume) runShareJob(j shareJob) {
	v.runShare(j.ctx, j.pl, j.slot, j.kind)
	j.pl.wg.Done()
}

// runShare runs one slot's share of a round: a write's ops are packed
// into one scatter and, like a scrub's exchange, go straight to the
// backend; a fetch's gather goes through readBatch, which hedges a user
// read.
func (v *Volume) runShare(ctx context.Context, pl *opPlan, slot int, kind fetchKind) {
	switch b := &pl.backends[slot]; {
	case len(b.ops) > 0:
		v.packScatter(b)
		v.stats.writeBatches.Inc()
		v.stats.writeBatchElements.Add(int64(len(b.ops)))
		fallthrough
	case kind == fetchScrub:
		b.xfer.err = pl.st.slots[slot].be.doCtx(ctx, &b.xfer)
	default:
		b.xfer.err = v.readBatch(ctx, slot, pl, b.spans, &b.xfer, kind)
	}
}

// tornElement returns the k-th read-modify-write image, carved from torn,
// which preRead sized for every image of the write before carving any.
func (pl *opPlan) tornElement(k int, elementSize int64) []byte {
	return pl.torn[int64(k)*elementSize : int64(k+1)*elementSize]
}

// buffersAdjacent reports whether b starts exactly where a ends in
// memory — i.e. extending a by len(b) within its capacity would cover
// b. The check reslices within a's capacity and compares element
// addresses, so no out-of-bounds pointer is ever formed.
func buffersAdjacent(a, b []byte) bool {
	if len(b) == 0 || cap(a)-len(a) < len(b) {
		return false
	}
	ext := a[: len(a)+1 : len(a)+1]
	return &ext[len(a)] == &b[0]
}

// packScatter sorts one backend's ops by store offset and lays them out
// as the wire ranges of the share's one scatter exchange. Ops adjacent
// in both store offset and memory — rebuild write-back's normal case,
// where a slice's recovered elements are consecutive subslices of one
// buffer bound for consecutive store rows — merge into a single range,
// up to MaxIOSize, the largest range a frame can carry. An op's vec
// index says which range carries it, so a mid-scatter remote error
// (ranges before the failed index are durable) can be credited back to
// exact elements. Under WireCRC merging is disabled: each range must
// stay exactly one element so its checksum maps onto one server sidecar
// block.
func (v *Volume) packScatter(b *backendPlan) {
	slices.SortFunc(b.ops, func(x, y writeOp) int { return cmp.Compare(x.off, y.off) })
	merge := !v.cfg.WireCRC
	x := &b.xfer
	x.begin(true)
	for i := range b.ops {
		op := &b.ops[i]
		if last := len(x.vecs) - 1; merge && last >= 0 && x.vecs[last].Off+int64(x.vecs[last].Len) == op.off &&
			x.vecs[last].Len+len(op.data) <= blockserver.MaxIOSize && buffersAdjacent(x.bufs[last], op.data) {
			x.vecs[last].Len += len(op.data)
			x.bufs[last] = x.bufs[last][:len(x.bufs[last])+len(op.data)]
		} else {
			x.add(op.off, op.data)
		}
		op.vec = int32(len(x.vecs) - 1)
	}
}
