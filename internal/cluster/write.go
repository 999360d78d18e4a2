package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/obs"
)

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
// only the drain of a window (a rebuild slice, a scrub batch) that
// shares a bucket with it, ReplaceBackend and the slice returning a disk
// to service ever wait for them. A write with a copy on a rebuilding
// disk inside a slice's in-flight window [s0, s1), or with any copy
// inside a scrub batch's, lets go of the drain (and rmwMu, which the
// slice may need for its own XOR), waits for that window and starts over
// — pre-read included — against the state it leaves; writes elsewhere —
// for a slice, other elements of the same stripes included — proceed.
// Together with the slice's drain this gives the invariant a rebuild
// relies on: a write is acknowledged only when every copy that any later
// state can call available holds its bytes, and at least one copy — or,
// on a parity volume, its row's parity op — took them. It either wrote
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
// plan left partial, the fence of the first copy found inside a window
// in flight (a rebuild slice's on the copy's slot, a scrub batch's on
// any), which the caller waits out before starting over. rmw says torn
// elements travel as the whole images preRead left in the plan, which it
// carved in the order met here (tornElements).
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
				if w := pl.st.fence(loc.slot, stripe); w != nil {
					return 0, w
				}
				if !pl.st.available(loc.slot, stripe) {
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
// copy. The shares run through fanOut, one of them on the calling
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
	v.fanOut(ctx, pl, fetchInternal) // kind steers gathers; these shares scatter
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
