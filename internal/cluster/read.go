package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"shiftedmirror/internal/blockserver"
)

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
	// fetchScrub is a scrub batch's gather (no spans, see gatherBatch):
	// never hedged, and kept out of the fetch-latency histogram.
	fetchScrub
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
// through fanOut — one of them on the calling goroutine, so a read that
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
			b.xfer.add(v.storeOffset(s.stripe, s.loc.row)+s.inner, s.buf)
		}
		if len(pl.active) == 0 {
			break // every pending span is left to parity
		}
		v.fanOut(ctx, pl, kind)
		pl.pending = pl.pending[:0]
		for _, slot := range pl.active {
			// A share that failed fails over whole: the pool has already
			// retried and possibly marked the backend dead.
			b := &pl.backends[slot]
			for _, si := range b.spans {
				if s := &pl.spans[si]; b.xfer.err != nil {
					s.lastErr = b.xfer.err // why, so exhaustion can tell corruption from loss
					s.src++
					pl.pending = append(pl.pending, si)
				} else if kind == fetchUser && s.src > 0 {
					v.stats.degradedReads.Inc() // routed past a failed or dead primary
				}
			}
			if b.xfer.err == nil && kind == fetchRebuild {
				v.stats.perDisk[slot].rebuildReads.Add(int64(len(b.spans)))
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
