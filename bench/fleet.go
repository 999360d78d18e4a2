package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/raid"
)

// Fleet geometry, fixed for every workload: G groups of a mirror
// architecture at n data disks (2n backends per group), one element the
// striping unit. Sizes are constants, never adapted at run time.
const (
	groupCount = 2
	mirrorN    = 4
	elemBytes  = 16 << 10
	stripeB    = mirrorN * mirrorN * elemBytes // user bytes per stripe
)

// lostGroup/lostDisk name the disk every reconstruction cycle fails.
const lostGroup = 0

var lostDisk = raid.DiskID{Role: raid.RoleData, Index: 0}

// backend is one disk: a store, the loopback server exporting it, and
// the address the volume dials.
type backend struct {
	raw   blockserver.Store // the MemStore or FileStore itself
	srv   *blockserver.Server
	addr  string
	close func() error // releases the file of a FileStore
}

// fleetOpts are the benchmark-side choices a fleet is built with; the
// volume itself always runs on default options plus WithGeometry.
type fleetOpts struct {
	file     bool    // FileStore backends instead of MemStore
	scratch  string  // FileStore fleets make their directory under here
	readRate float64 // blockserver.WithReadRate, 0 = unthrottled
	stripes  int     // per group
	// spare keeps one extra resident store per fleet for replace to
	// serve, so a rebuild onto a "fresh" server does not pay first-touch
	// page faults inside its timer.
	spare bool
	// wrap, when set, interposes a benchmark-side store around every
	// backend's store before it is served (the traced run's timing store).
	wrap func(blockserver.Store) blockserver.Store
	// srvOpts, when set, supplies each new server's options (the traced
	// run's per-backend tracer and shared metrics).
	srvOpts func() []blockserver.ServerOption
}

// fleet is one sharded volume with its backends. Everything it starts
// is stopped by close.
type fleet struct {
	opts     fleetOpts
	arch     *shiftedmirror.Mirror
	backends []map[raid.DiskID]*backend // per group
	vol      *shiftedmirror.ShardedVolume
	spare    *backend // unserved store the next replace will use
	dir      string   // FileStore files, removed by close
	fileSeq  int
}

func (o fleetOpts) diskBytes() int64 { return int64(o.stripes) * mirrorN * elemBytes }

// userBytes is the logical capacity of a fleet built with these options.
func (o fleetOpts) userBytes() int64 { return int64(groupCount) * int64(o.stripes) * stripeB }

// newFleet spawns the backends, opens the sharded volume over them and
// fills it with ref. It is the unit setup_s times.
func newFleet(arch *shiftedmirror.Mirror, o fleetOpts, ref []byte) (*fleet, error) {
	f := &fleet{opts: o, arch: arch}
	if o.file {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.scratch, "fleet-")
		if err != nil {
			return nil, err
		}
		f.dir = dir
	}
	addrs := make([]map[raid.DiskID]string, groupCount)
	for g := range addrs {
		var err error
		if addrs[g], err = f.spawnGroup(); err != nil {
			f.close()
			return nil, err
		}
	}
	if o.spare {
		var err error
		if f.spare, err = f.newStore(); err == nil {
			err = scribble(f.spare) // touch every page now, not inside a rebuild
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	vol, err := shiftedmirror.NewShardedVolume(arch, addrs, shiftedmirror.WithGeometry(elemBytes, o.stripes))
	if err != nil {
		f.close()
		return nil, fmt.Errorf("open volume: %w", err)
	}
	f.vol = vol
	if int64(len(ref)) != vol.Size() {
		f.close()
		return nil, fmt.Errorf("reference image is %d bytes, volume %d", len(ref), vol.Size())
	}
	if _, err := vol.WriteAt(ref, 0); err != nil {
		f.close()
		return nil, fmt.Errorf("fill: %w", err)
	}
	return f, nil
}

// spawnGroup serves one group's 2n disks and returns their address map.
func (f *fleet) spawnGroup() (map[raid.DiskID]string, error) {
	disks, addrs := map[raid.DiskID]*backend{}, map[raid.DiskID]string{}
	f.backends = append(f.backends, disks)
	for _, id := range f.arch.Disks() {
		b, err := f.spawn()
		if err != nil {
			return nil, err
		}
		disks[id], addrs[id] = b, b.addr
	}
	return addrs, nil
}

// newStore makes one fresh zeroed disk, not yet served.
func (f *fleet) newStore() (*backend, error) {
	b := &backend{close: func() error { return nil }}
	if f.opts.file {
		path := filepath.Join(f.dir, fmt.Sprintf("disk-%03d.img", f.fileSeq))
		f.fileSeq++
		fs, err := dev.OpenFileStore(path, f.opts.diskBytes())
		if err != nil {
			return nil, err
		}
		b.raw, b.close = fs, fs.Close
	} else {
		b.raw = dev.NewMemStore(f.opts.diskBytes())
	}
	return b, nil
}

// spawn serves one fresh zeroed disk on an ephemeral loopback port.
func (f *fleet) spawn() (*backend, error) {
	b, err := f.newStore()
	if err != nil {
		return nil, err
	}
	return b, f.serve(b)
}

// serve exports b's store on an ephemeral loopback port.
func (f *fleet) serve(b *backend) error {
	served := b.raw
	if f.opts.wrap != nil {
		served = f.opts.wrap(b.raw)
	}
	var opts []blockserver.ServerOption
	if f.opts.srvOpts != nil {
		opts = f.opts.srvOpts()
	}
	if f.opts.readRate > 0 {
		opts = append(opts, blockserver.WithReadRate(f.opts.readRate))
	}
	b.srv = blockserver.NewStoreServer(served, opts...)
	bound, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		b.close()
		return err
	}
	b.addr = bound.String()
	return nil
}

// replace swaps the lost disk's backend for a new server over the
// scribbled spare store and points the volume at it (the ReplaceBackend
// leg of a reconstruction cycle). The retired store becomes the spare.
func (f *fleet) replace() error {
	old := f.backends[lostGroup][lostDisk]
	old.srv.Close()
	b := f.spare
	if err := scribble(b); err != nil {
		return err
	}
	if err := f.serve(b); err != nil {
		return err
	}
	f.backends[lostGroup][lostDisk], f.spare = b, old
	return f.vol.ReplaceBackend(lostGroup, lostDisk, b.addr)
}

// close tears down the volume, every server and every file store.
func (f *fleet) close() {
	if f.vol != nil {
		f.vol.Close()
	}
	for _, g := range f.backends {
		for _, b := range g {
			if b.srv != nil {
				b.srv.Close()
			}
			b.close()
		}
	}
	if f.spare != nil {
		f.spare.close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// diskImage copies one backend's bytes out of its store, bypassing the
// wire: the benchmark owns the stores, so images compare without going
// through a throttled server.
func diskImage(b *backend) ([]byte, error) {
	img := make([]byte, b.raw.Size())
	if _, err := b.raw.ReadAt(img, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return img, nil
}

// diskEquals compares a backend's bytes with want, a chunk at a time.
func diskEquals(b *backend, want []byte) (bool, error) {
	buf := make([]byte, 1<<20)
	for off := 0; off < len(want); off += len(buf) {
		n := len(buf)
		if rem := len(want) - off; rem < n {
			n = rem
		}
		if _, err := b.raw.ReadAt(buf[:n], int64(off)); err != nil && err != io.EOF {
			return false, err
		}
		if !bytes.Equal(buf[:n], want[off:off+n]) {
			return false, nil
		}
	}
	return b.raw.Size() == int64(len(want)), nil
}

var junk = bytes.Repeat([]byte{0xA5}, 1<<20)

// scribble overwrites the lost disk's store with a pattern that is not
// its content, so a rebuild onto the same backend cannot pass the
// byte-identity check by leaving the old bytes in place.
func scribble(b *backend) error {
	for off := int64(0); off < b.raw.Size(); off += int64(len(junk)) {
		n := int64(len(junk))
		if rem := b.raw.Size() - off; rem < n {
			n = rem
		}
		if _, err := b.raw.WriteAt(junk[:n], off); err != nil {
			return err
		}
	}
	return nil
}

// verifyFleet is the end-of-workload check: the whole volume reads back
// equal to ref and Scrub finds every replica consistent. A fleet whose
// servers are read-throttled is checked through a second, unthrottled
// volume over the same stores, so the check costs memory speed, not
// media-model speed.
func verifyFleet(ctx context.Context, f *fleet, ref []byte) error {
	vol := f.vol
	if f.opts.readRate > 0 {
		twin, err := f.unthrottledTwin()
		if err != nil {
			return err
		}
		defer twin.close()
		vol = twin.vol
	}
	const chunk = 4 << 20
	buf := make([]byte, chunk)
	for off := int64(0); off < int64(len(ref)); off += chunk {
		n := int64(chunk)
		if rem := int64(len(ref)) - off; rem < n {
			n = rem
		}
		if _, err := vol.ReadAtCtx(ctx, buf[:n], off); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
		if !bytes.Equal(buf[:n], ref[off:off+n]) {
			return fmt.Errorf("read-back at [%d,%d) differs from the reference image", off, off+n)
		}
	}
	rep, err := vol.Scrub(ctx)
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if len(rep.Skipped) != 0 {
		return fmt.Errorf("scrub skipped %d disks", len(rep.Skipped))
	}
	return nil
}

// unthrottledTwin serves the fleet's current stores a second time,
// without the read-rate limiter, and opens a volume over them.
func (f *fleet) unthrottledTwin() (*fleet, error) {
	t := &fleet{opts: fleetOpts{stripes: f.opts.stripes}, arch: f.arch}
	addrs := make([]map[raid.DiskID]string, groupCount)
	for g, disks := range f.backends {
		t.backends = append(t.backends, map[raid.DiskID]*backend{})
		addrs[g] = map[raid.DiskID]string{}
		for id, b := range disks {
			tb := &backend{raw: b.raw, close: func() error { return nil }} // the store stays f's
			if err := t.serve(tb); err != nil {
				t.close()
				return nil, err
			}
			t.backends[g][id], addrs[g][id] = tb, tb.addr
		}
	}
	vol, err := shiftedmirror.NewShardedVolume(f.arch, addrs, shiftedmirror.WithGeometry(elemBytes, f.opts.stripes))
	if err != nil {
		t.close()
		return nil, err
	}
	t.vol = vol
	return t, nil
}

// slotGroups maps each logical stripe slot to its group, read from the
// volume's public extent table.
func slotGroups(vol *shiftedmirror.ShardedVolume) []int {
	ext := vol.ExtentTable()
	out := make([]int, len(ext))
	for i, e := range ext {
		out[i] = e.Group
	}
	return out
}
