package cluster

import (
	"context"

	"shiftedmirror/internal/gf"
)

// Mirror-with-parity (the paper's §V) on the one volume core. The parity
// disk is the slot past the placement's disks; row r of its stripe s
// holds the XOR of the n data elements of row r of stripe s. It adds one
// rule to each path, and no plan interpreter:
//
//   - Read: an element none of whose copies can be read is the XOR of
//     its row's parity and its n−1 row-mates, each fetched through its
//     own copies with ordinary failover (fetchXor).
//   - Write: each written row's parity range becomes old ⊕ new ⊕
//     old-parity, from one pre-read of the old data and old parity
//     (stageParity, foldParity), and goes out as one op per row beside
//     the data's (planParity). A landed parity op makes every element of
//     its row durable — the XOR serves one whose copies all missed the
//     write — so an element with no copy to write is written through
//     parity alone.
//   - Rebuild: a data or mirror slot gathers as ever, the read rule
//     covering its doubly-lost elements; the parity slot folds each row
//     of its slices from the row's data (gatherParity).
//   - Scrub: each row's parity is compared with the XOR of its data
//     (scrubParity).
//
// What keeps every XOR honest is rmwMu: a parity write holds it from its
// pre-read to the end of its fan-out, and every XOR holds it across its
// gather, so no XOR combines bytes from before and after one write.

// parityRow is one row a parity write touches: the byte range [lo, hi)
// of the row's parity element it changes — under WireCRC the whole
// element, which then travels whole like a torn one — and buf, that
// range's new content. span is the pre-read's span fetching the old
// parity into buf, or -1 when the parity disk could not serve the stripe
// as the pre-read began; unreadable says that fetch failed. [first, end)
// are the write's elements in the row, which the row's parity op
// credits when it lands.
type parityRow struct {
	stripe, row int
	lo, hi      int64
	buf         []byte
	span        int32
	first, end  int32
	unreadable  bool
}

// replan is a fence that is already down: a write told to wait for it
// starts over at once (see planParity).
var replan = func() *window {
	w := &window{done: make(chan struct{})}
	close(w.done)
	return w
}()

// xorable reports whether span s, none of whose copies can be read, can
// be served from its row's parity: the volume has a parity disk that
// holds the stripe, s is a data span, and pl is not itself gathering
// for an XOR (whose row-mates have nothing further to fall back on).
func (v *Volume) xorable(pl *opPlan, s *span) bool {
	return v.parity >= 0 && !pl.inXor && s.disk >= 0 && pl.st.available(v.parity, s.stripe)
}

// fetchXor serves the spans in pl.lost from parity: each is the XOR of
// its row's parity element and its n−1 row-mates over the same byte
// range, all fetched in one gather — the parity straight into the span's
// buffer, the row-mates beside it — and folded. Row-mates fail over
// through their copies like any read; in a rebuild gather they are
// credited to their sources like the rest of it (the paper counts them
// as the recovery's reads). Unless the plan's op already holds rmwMu, the
// XOR takes it for the gather.
func (v *Volume) fetchXor(ctx context.Context, pl *opPlan, kind fetchKind) error {
	if !pl.rmwHeld {
		v.rmwMu.Lock()
		defer v.rmwMu.Unlock()
	}
	sub := v.getPlan()
	defer v.putPlan(sub)
	sub.rmwHeld, sub.inXor = true, true
	size := 0
	for _, si := range pl.lost {
		size += (v.n - 1) * len(pl.spans[si].buf)
	}
	sub.mates = grow(sub.mates, size)
	mates, at := sub.mates, 0
	for _, si := range pl.lost {
		s := pl.spans[si]
		sub.spans = append(sub.spans, span{stripe: s.stripe, disk: -1, row: s.row, inner: s.inner, buf: s.buf})
		for d := 0; d < v.n; d++ {
			if d != s.disk {
				sub.spans = append(sub.spans, span{stripe: s.stripe, disk: d, row: s.row, inner: s.inner, buf: mates[at : at+len(s.buf)]})
				at += len(s.buf)
			}
		}
	}
	subKind := fetchInternal
	if kind == fetchRebuild {
		subKind = fetchRebuild
	}
	if err := v.fetchSpans(ctx, sub, subKind); err != nil {
		return err
	}
	at = 0
	for _, si := range pl.lost {
		buf := pl.spans[si].buf
		for d := 1; d < v.n; d++ {
			gf.XorSlice(mates[at:at+len(buf)], buf)
			at += len(buf)
		}
	}
	v.stats.parityReads.Add(int64(len(pl.lost)))
	if kind == fetchUser {
		v.stats.degradedReads.Add(int64(len(pl.lost)))
	}
	return nil
}

// stageParity adds to a parity write's pre-read the old bytes under
// every range of the pieces (total bytes, into pl.old, which parallels
// the pieces laid end to end) and, for each row they touch, the old
// bytes of the parity range it changes (into the row's buf) — for rows
// whose stripe the parity disk can serve now; the others skip their
// parity op or wait for the parity's rebuild (planParity). Elements are
// numbered across the pieces, as planWrite numbers them; no row spans
// two pieces, which share no stripe.
func (v *Volume) stageParity(pl *opPlan, pieces []Piece, total int) {
	es := v.elementSize
	pl.rows = pl.rows[:0]
	pl.old = grow(pl.old, total)
	old, elem := 0, int32(0)
	for _, pc := range pieces {
		for at := 0; at < len(pc.Buf); elem++ {
			stripe, disk, row, inner := v.elemAddr(pc.Off + int64(at))
			chunk := int(min(es-inner, int64(len(pc.Buf)-at)))
			pl.spans = append(pl.spans, span{stripe: stripe, disk: disk, row: row, inner: inner, buf: pl.old[old : old+chunk]})
			lo, hi := inner, inner+int64(chunk)
			if v.cfg.WireCRC {
				lo, hi = 0, es
			}
			if k := len(pl.rows) - 1; k >= 0 && pl.rows[k].stripe == stripe && pl.rows[k].row == row {
				pl.rows[k].lo, pl.rows[k].hi, pl.rows[k].end = min(pl.rows[k].lo, lo), max(pl.rows[k].hi, hi), elem+1
			} else {
				pl.rows = append(pl.rows, parityRow{stripe: stripe, row: row, lo: lo, hi: hi, span: -1, first: elem, end: elem + 1})
			}
			at += chunk
			old += chunk
		}
	}
	size := int64(0)
	for _, r := range pl.rows {
		size += r.hi - r.lo
	}
	pl.parity = grow(pl.parity, int(size))
	st := v.state.Load()
	at := int64(0)
	for i := range pl.rows {
		r := &pl.rows[i]
		r.buf = pl.parity[at : at+r.hi-r.lo]
		at += r.hi - r.lo
		if st.available(v.parity, r.stripe) {
			r.span = int32(len(pl.spans))
			pl.spans = append(pl.spans, span{stripe: r.stripe, disk: -1, row: r.row, inner: r.lo, buf: r.buf})
		}
	}
}

// foldParity turns each read row's old parity into the new one: the old
// and the new bytes of every range the write changes are XORed in at
// the range's place. A row whose old parity could not be fetched (its
// span exhausted its one location) is marked unreadable instead.
func (v *Volume) foldParity(pl *opPlan, pieces []Piece) {
	for i := range pl.rows {
		r := &pl.rows[i]
		r.unreadable = r.span >= 0 && pl.spans[r.span].src != 0
	}
	row, old := -1, 0
	for _, pc := range pieces {
		for at := 0; at < len(pc.Buf); {
			stripe, _, r, inner := v.elemAddr(pc.Off + int64(at))
			chunk := int(min(v.elementSize-inner, int64(len(pc.Buf)-at)))
			if row < 0 || pl.rows[row].stripe != stripe || pl.rows[row].row != r {
				row++
			}
			if pr := &pl.rows[row]; pr.span >= 0 && !pr.unreadable {
				x := pr.buf[inner-pr.lo : inner-pr.lo+int64(chunk)]
				gf.XorSlice(pl.old[old:old+chunk], x)
				gf.XorSlice(pc.Buf[at:at+chunk], x)
			}
			at += chunk
			old += chunk
		}
	}
}

// planParity adds each written row's parity op against pl.st, the op's
// elem naming the row (see opPlan.credit). A row inside a window in
// flight on the parity disk — a slice of its rebuild, a scrub batch —
// waits for it. A row whose stripe the parity disk cannot serve gets no
// op: the parity's rebuild recomputes it. A row the parity disk
// took back after the pre-read ran has no old parity to fold: the write
// starts over (replan). A parity backend that failed the pre-read gets
// no op either, and the verdict a failed write would earn it: it is
// auto-failed, and its rebuild recomputes the row.
func (v *Volume) planParity(pl *opPlan) *window {
	for i := range pl.rows {
		r := &pl.rows[i]
		if w := pl.st.fence(v.parity, r.stripe); w != nil {
			return w // checked first, as planWrite does
		}
		switch {
		case !pl.st.available(v.parity, r.stripe):
		case r.unreadable:
			pl.broken = append(pl.broken, brokenBackend{slot: v.parity, stripe: r.stripe})
		case r.span < 0:
			return replan
		default:
			b := pl.backend(v.parity)
			b.ops = append(b.ops, writeOp{
				off: v.storeOffset(r.stripe, r.row) + r.lo, data: r.buf,
				elem: -1 - int32(i), stripe: int32(r.stripe),
			})
		}
	}
	return nil
}

// gatherParity fills a slice of the parity disk: each row of it is the
// XOR of the row's n data elements, fetched through their copies into
// job.rows and credited to their sources like any rebuild read. The
// gather holds rmwMu, as every XOR does.
func (v *Volume) gatherParity(ctx context.Context, job *sliceJob) error {
	es := v.elementSize
	row := int64(v.n) * es // one row's data elements, side by side
	job.rows = grow(job.rows, job.elems*int(row))
	pl := job.pl
	for i := 0; i < job.elems; i++ {
		for d := 0; d < v.n; d++ {
			at := int64(i)*row + int64(d)*es
			pl.spans = append(pl.spans, span{stripe: job.win.s0 + i/v.n, disk: d, row: i % v.n, buf: job.rows[at : at+es]})
		}
	}
	v.rmwMu.Lock()
	pl.rmwHeld = true
	err := v.fetchSpans(ctx, pl, fetchRebuild)
	v.rmwMu.Unlock()
	if err != nil {
		return err
	}
	for i := 0; i < job.elems; i++ {
		dst, data := job.buf[int64(i)*es:int64(i+1)*es], job.rows[int64(i)*row:]
		copy(dst, data[:es])
		for d := int64(1); d < int64(v.n); d++ {
			gf.XorSlice(data[d*es:(d+1)*es], dst)
		}
	}
	return nil
}

// grow returns b resized to n bytes, reallocating only when it is too
// small.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
