package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/gf"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

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
// The pass runs from stripe 0 at full speed; each batch is a snapshot of
// its stripes (see scrubBatch), and ScrubOnline is the throttled,
// resumable form.
func (v *Volume) Scrub(ctx context.Context) (ScrubReport, error) {
	return v.scrubPass(ctx, false)
}

// ScrubOnline is the background-friendly form of Scrub: the same full
// verification pass (checksum fast path, byte fallback, degraded
// verdict) for a volume that is actively serving.
//
//   - Rate limiting: when the QoS controller is enabled
//     (WithRebuildQoS), every batch first buys its stripes from the
//     same token bucket that throttles RebuildDisk, so scrub and
//     rebuild back off together when user-read p99 pressure rises.
//   - Resumability: the pass walks the volume circularly from a
//     persistent cursor (sm_cluster_scrub_cursor_stripes); a cancelled
//     pass keeps its position, and the next call picks up there
//     instead of re-verifying the stripes it already covered.
//
// One full circuit of the volume constitutes a pass: the report covers
// every stripe exactly once, the scrub counters roll, and skipped
// disks surface as ErrDegraded exactly as with Scrub. On cancellation
// the partial report and ctx's error are returned.
func (v *Volume) ScrubOnline(ctx context.Context) (ScrubReport, error) {
	return v.scrubPass(ctx, true)
}

// scrubPass is the one walker behind Scrub and ScrubOnline: every
// stripe batch once — from stripe 0, or when online circularly from the
// cursor, buying each batch's stripes from the QoS bucket first and
// parking the cursor after it. Every batch runs from one scratch.
func (v *Volume) scrubPass(ctx context.Context, online bool) (ScrubReport, error) {
	var report ScrubReport
	batch, stripes := v.cfg.RebuildBatch, v.stripes
	sc := &scrubScratch{pl: v.getPlan(), crc: v.cfg.WireCRC && v.parity < 0, per: batch * v.n,
		sums: make([]uint32, len(v.ids)*batch*v.n), row: make([]byte, v.elementSize),
		gathered: make([]bool, len(v.ids)), skipped: make([]bool, len(v.ids))}
	defer v.putPlan(sc.pl)
	first := 0
	if online {
		first = int(v.scrubPos.Load()) / batch
	}
	numBatches := (stripes + batch - 1) / batch
	for k := 0; k < numBatches; k++ {
		s0 := (first + k) % numBatches * batch
		s1 := min(s0+batch, stripes)
		cost := 0 // free: acquire then only checks ctx
		if online {
			cost = s1 - s0
		}
		if err := v.scrubBatch(ctx, sc, &report, s0, s1, cost); err != nil {
			return report, err
		}
		if online {
			v.scrubPos.Store(int64(s1 % stripes))
		}
	}
	return report, v.scrubFinish(&report, sc.skipped)
}

// scrubScratch is one pass's memory, reused batch after batch: per slot,
// a full batch's element digests of width bytes each (a CRC-32C, which
// arrives in sums, or the element itself), which slots the batch in hand
// gathered against which state, the slots skipped across the pass, and a
// parity row's XOR.
type scrubScratch struct {
	pl                *opPlan
	crc               bool
	how               string // names the comparison in an error
	per, s0           int    // elements of one slot in a full batch; the batch's first stripe
	width             int64
	digests           []byte
	sums              []uint32
	st                *volState
	gathered, skipped []bool
	row               []byte
}

// scrubBatch verifies stripes [s0, s1) as one snapshot, walking them the
// way a rebuild slice does: it opens a window over every slot (paying
// cost stripes of QoS first), gathers the batch's digests against the
// state the drain left, and closes the window before it compares, so the
// fence lasts one gather and a mismatch is real divergence, never a write
// caught half way. A backend that answers ErrNoCRC turns the pass to
// bytes for good, and the batch is gathered again inside the same window.
func (v *Volume) scrubBatch(ctx context.Context, sc *scrubScratch, report *ScrubReport, s0, s1, cost int) error {
	win := &window{slot: allSlots}
	if _, err := v.openWindow(ctx, cost, win, func(*volState) error { win.s0, win.s1 = s0, s1; return nil }); err != nil {
		return err
	}
	sc.st, sc.s0 = v.state.Load(), s0
	err := v.gatherBatch(ctx, sc, s1)
	if errors.Is(err, blockserver.ErrNoCRC) {
		sc.crc = false
		err = v.gatherBatch(ctx, sc, s1)
	}
	v.endWindow(win)
	if err != nil {
		return err
	}
	for stripe := s0; stripe < s1; stripe++ {
		for disk := 0; disk < v.n; disk++ {
			for row := 0; row < v.n; row++ {
				locs := v.locations(stripe, disk, row)
				want := v.scrubDigest(sc, locs[0], stripe)
				if want == nil {
					continue
				}
				for _, loc := range locs[1:] {
					got := v.scrubDigest(sc, loc, stripe)
					if got == nil {
						continue
					}
					if !bytes.Equal(want, got) {
						return fmt.Errorf("%w: %v of data[%d] stripe %d row %d%s",
							ErrScrubMismatch, loc.id, disk, stripe, row, sc.how)
					}
					report.ElementsCompared++
					if sc.crc {
						report.ChecksumCompared++
					}
				}
			}
		}
		if v.parity >= 0 {
			if err := v.scrubParity(sc, stripe, report); err != nil {
				return err
			}
		}
	}
	return nil
}

// gatherBatch gathers the digests of stripes [sc.s0, s1) through fanOut:
// one share per slot sc.st lets serve them — its elements as one range of
// bytes (cut at MaxIOSize), or one OpCrcV range each. A slot that cannot
// serve the batch, or is unreachable, is skipped like a failed disk; a
// store-level (remote) error is returned, and so is ErrNoCRC.
func (v *Volume) gatherBatch(ctx context.Context, sc *scrubScratch, s1 int) error {
	pl, es := sc.pl, v.elementSize
	pl.st = sc.st
	defer pl.clearRound()
	sc.width, sc.how = es, ""
	if sc.crc {
		sc.width, sc.how = 4, " (checksum)"
	}
	sc.digests = grow(sc.digests, int(int64(len(v.ids)*sc.per)*sc.width))
	elems, off := (s1-sc.s0)*v.n, v.storeOffset(sc.s0, 0)
	for slot := range v.ids {
		sc.gathered[slot] = false
		if !sc.st.available(slot, s1-1) && !sc.st.available(slot, sc.s0) {
			sc.skipped[slot] = true
			continue
		}
		x, at := &pl.backend(slot).xfer, slot*sc.per
		if sc.crc {
			x.sums = sc.sums[at : at+elems]
			for i := range elems {
				x.vecs = append(x.vecs, blockserver.Vec{Off: off + int64(i)*es, Len: int(es)})
			}
			continue
		}
		buf := sc.digests[int64(at)*es : int64(at+elems)*es]
		for lo := 0; lo < len(buf); lo += blockserver.MaxIOSize {
			x.add(off+int64(lo), buf[lo:min(lo+blockserver.MaxIOSize, len(buf))])
		}
	}
	if len(pl.active) == 0 {
		return nil
	}
	v.fanOut(ctx, pl, fetchScrub)
	if err := ctx.Err(); err != nil {
		return err
	}
	var noCRC, remote error
	for _, slot := range pl.active {
		switch err := pl.backends[slot].xfer.err; {
		case err == nil:
			sc.gathered[slot] = true
		case errors.Is(err, blockserver.ErrNoCRC):
			noCRC = err
		case blockserver.IsRemote(err):
			if remote == nil {
				remote = fmt.Errorf("cluster: scrub read%s on %v: %w", sc.how, v.ids[slot], err)
			}
		default:
			sc.skipped[slot] = true // unreachable: skip, like a failed disk
		}
	}
	if noCRC != nil {
		return noCRC
	}
	if sc.crc {
		for i, sum := range sc.sums {
			binary.BigEndian.PutUint32(sc.digests[4*i:], sum)
		}
	}
	return remote
}

// scrubDigest is loc's digest of its element in the stripe, nil when the
// batch holds none: its slot was not gathered or cannot serve the stripe.
func (v *Volume) scrubDigest(sc *scrubScratch, loc location, stripe int) []byte {
	if !sc.gathered[loc.slot] || !sc.st.available(loc.slot, stripe) {
		return nil
	}
	at := int64(loc.slot*sc.per+(stripe-sc.s0)*v.n+loc.row) * sc.width
	return sc.digests[at : at+sc.width]
}

// scrubParity checks each row of one stripe of a scrub batch: its parity
// must equal the XOR of the row's data elements, each taken from its
// first copy the batch gathered (a parity volume scrubs bytes). A row
// whose parity or any data element went ungathered is left unchecked.
func (v *Volume) scrubParity(sc *scrubScratch, stripe int, report *ScrubReport) error {
	sum := sc.row
rows:
	for row := 0; row < v.n; row++ {
		want := v.scrubDigest(sc, v.parityLocs[row], stripe)
		if want == nil {
			continue
		}
		clear(sum)
		for disk := 0; disk < v.n; disk++ {
			var got []byte
			for _, loc := range v.locations(stripe, disk, row) {
				if got = v.scrubDigest(sc, loc, stripe); got != nil {
					break
				}
			}
			if got == nil {
				continue rows
			}
			gf.XorSlice(got, sum)
		}
		if !bytes.Equal(sum, want) {
			return fmt.Errorf("%w: parity of stripe %d row %d", ErrScrubMismatch, stripe, row)
		}
		report.ElementsCompared++
	}
	return nil
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
