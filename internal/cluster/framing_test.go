package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// The volume plans one exchange per backend per round and leaves the
// wire's limits to the wire client. These tests drive shares larger than
// one frame may carry (blockserver.MaxIOSize) through a healthy volume:
// a request's size must never look like a dead backend. They move a few
// hundred megabytes each, so they skip under -short and -race and never
// run in parallel with anything.

func skipBigTransfer(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("moves hundreds of megabytes")
	}
	if raceEnabled {
		t.Skip("moves hundreds of megabytes; too slow under the race detector")
	}
}

// bigConfig is fastConfig with room for transfers of tens of megabytes.
// RebuildBatch stays at its default: the slice size is what the rebuild
// test is about.
func bigConfig(elementSize int64, stripes int) Config {
	cfg := fastConfig(elementSize, stripes)
	cfg.OpTimeout = time.Minute
	cfg.RebuildBatch = 0
	return cfg
}

// mark writes a distinct 16-byte marker somewhere inside every listed
// element and returns a check that got — a read of the whole volume —
// holds exactly the markers and zeros everywhere else. The stores stay
// sparse: nothing is filled.
func mark(t *testing.T, v *Volume, elements []int64) (check func(got []byte)) {
	t.Helper()
	offs := make([]int64, len(elements))
	for i, e := range elements {
		offs[i] = e*v.elementSize + (e*4099)%(v.elementSize-16)
		var m [16]byte
		binary.BigEndian.PutUint64(m[:], uint64(e)+1)
		binary.BigEndian.PutUint64(m[8:], ^uint64(e))
		if _, err := v.WriteAt(m[:], offs[i]); err != nil {
			t.Fatalf("marker in element %d: %v", e, err)
		}
	}
	return func(got []byte) {
		t.Helper()
		for i, e := range elements {
			m := got[offs[i] : offs[i]+16]
			if binary.BigEndian.Uint64(m) != uint64(e)+1 || binary.BigEndian.Uint64(m[8:]) != ^uint64(e) {
				t.Fatalf("element %d: marker at %d read back as %x", e, offs[i], m)
			}
			clear(m)
		}
		zero := make([]byte, 1<<20)
		for at := 0; at < len(got); at += len(zero) {
			if chunk := got[at:min(at+len(zero), len(got))]; !bytes.Equal(chunk, zero[:len(chunk)]) {
				t.Fatalf("bytes near offset %d are neither marker nor zero", at)
			}
		}
	}
}

// TestReadLargerThanOneFrame: one ReadAt of a healthy n = 2 volume that
// needs 72 MiB from each data backend. The wire client sends each share
// as two frames; the volume sees one exchange per backend, no failover,
// no retry, and certainly no data loss.
func TestReadLargerThanOneFrame(t *testing.T) {
	skipBigTransfer(t)
	const n, stripes, elementSize = 2, 36, 1 << 20
	if share := int64(stripes * n * elementSize); share <= blockserver.MaxIOSize {
		t.Fatalf("a data backend's share is %d bytes: it fits one frame", share)
	}
	arch := raid.NewMirror(layout.NewShifted(n))
	backends := startBackends(t, arch, elementSize, stripes)
	v, err := New(arch, backends.addrs, bigConfig(elementSize, stripes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	var elements []int64
	for e := int64(0); e < stripes*n*n; e += 5 {
		elements = append(elements, e)
	}
	elements = append(elements, stripes*n*n-1)
	check := mark(t, v, elements)
	before := v.Stats()
	got := make([]byte, v.Size())
	if _, err := v.ReadAt(got, 0); err != nil {
		t.Fatalf("whole-volume read of a healthy volume: %v", err)
	}
	check(got)
	st := v.Stats()
	if st.Failovers != before.Failovers || st.DegradedReads != before.DegradedReads {
		t.Fatalf("a large read of a healthy volume failed over: %d failovers, %d degraded reads",
			st.Failovers-before.Failovers, st.DegradedReads-before.DegradedReads)
	}
	for _, b := range st.Backends {
		if b.Retries != 0 || b.Errors != 0 {
			t.Fatalf("backend %s: %d retries, %d errors serving a healthy volume", b.Disk, b.Retries, b.Errors)
		}
	}
}

// TestTraditionalRebuildSliceLargerThanOneFrame: under the traditional
// arrangement a rebuild slice comes from the single twin, so with the
// default RebuildBatch and elements just over 2 MiB one slice is more
// than a frame may carry — the baseline the paper's speedup is measured
// against must still rebuild. The replacement ends byte-identical and a
// scrub of the whole volume (which reads 64 MiB and more per disk in one
// call: bytes without WireCRC, checksums with it) comes back clean.
func TestTraditionalRebuildSliceLargerThanOneFrame(t *testing.T) {
	skipBigTransfer(t)
	const n, stripes, elementSize = 2, 16, 2<<20 + 4096
	for _, crc := range []bool{false, true} {
		name := map[bool]string{false: "plain", true: "crc"}[crc]
		t.Run(name, func(t *testing.T) {
			cfg := bigConfig(elementSize, stripes)
			cfg.WireCRC = crc
			if slice := int64(cfg.withDefaults().RebuildBatch) * n * elementSize; slice <= blockserver.MaxIOSize {
				t.Fatalf("a rebuild slice is %d bytes from the twin: it fits one frame", slice)
			}
			arch := raid.NewMirror(layout.NewTraditional(n))
			var opts []backendOpt
			if crc {
				opts = append(opts, withCRC(elementSize))
			}
			backends := startBackends(t, arch, elementSize, stripes, opts...)
			v, err := New(arch, backends.addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(v.Close)
			// One marker per stripe in an element of the disk to be lost,
			// plus the volume's last element.
			var elements []int64
			for s := int64(0); s < stripes; s++ {
				elements = append(elements, s*n*n+(s%n)*n)
			}
			elements = append(elements, stripes*n*n-1)
			check := mark(t, v, elements)

			ctx := context.Background()
			lost := raid.DiskID{Role: raid.RoleData, Index: 0}
			original := backends.stores[lost]
			if err := v.Fail(lost); err != nil {
				t.Fatal(err)
			}
			var spare []blockserver.ServerOption
			if crc {
				spare = append(spare, blockserver.WithCRC(elementSize))
			}
			if err := v.ReplaceBackend(lost, backends.replace(lost, spare...)); err != nil {
				t.Fatal(err)
			}
			if err := v.RebuildDisk(ctx, lost); err != nil {
				t.Fatalf("rebuild from the twin: %v", err)
			}
			want, _ := original.Slice(0, original.Size())
			have, _ := backends.stores[lost].Slice(0, original.Size())
			if !bytes.Equal(have, want) {
				t.Fatal("rebuilt disk is not byte-identical to the lost one")
			}
			report, err := v.Scrub(ctx)
			if err != nil {
				t.Fatalf("scrub after the rebuild: %v", err)
			}
			if report.ElementsCompared != stripes*n*n || (report.ChecksumCompared != 0) != crc {
				t.Fatalf("scrub report %+v: want %d elements compared, by checksum: %v", report, stripes*n*n, crc)
			}
			got := make([]byte, v.Size())
			if _, err := v.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			check(got)
			for _, b := range v.Stats().Backends {
				if b.Retries != 0 {
					t.Fatalf("backend %s: %d retries on a fleet that never dropped a connection", b.Disk, b.Retries)
				}
			}
		})
	}
}

// TestNewRejectsUnaddressableGeometry: a geometry the volume could not
// address is refused up front, naming the field — not discovered at the
// first I/O as a backend that serves nothing.
func TestNewRejectsUnaddressableGeometry(t *testing.T) {
	arch := raid.NewMirror(layout.NewShifted(3))
	addrs := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		addrs[id] = "127.0.0.1:1" // never dialed: New must fail first
	}
	type refusal struct {
		name string
		cfg  Config
		want string
	}
	cases := []refusal{
		{"element larger than a wire range", Config{ElementSize: blockserver.MaxIOSize + 1, Stripes: 1}, "Config.ElementSize"},
		{"disk size overflows int", Config{ElementSize: 1 << 20, Stripes: math.MaxInt / 3 >> 19}, "disk size"},
	}
	// Where int is 64 bits a disk can fit while the volume — n disks'
	// worth of data — does not; where it is 32 the disk check fires first.
	if stripes := int64(math.MaxInt64 / 9 >> 19); int64(int(stripes)) == stripes {
		cases = append(cases, refusal{"volume size overflows int64", Config{ElementSize: 1 << 20, Stripes: int(stripes)}, "volume size"})
	}
	for _, tc := range cases {
		v, err := New(arch, addrs, tc.cfg)
		if err == nil {
			v.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "Config.") {
			t.Errorf("%s: error %q does not name the field and %q", tc.name, err, tc.want)
		}
	}
	// The largest element the wire carries is fine.
	v, err := New(arch, addrs, Config{ElementSize: blockserver.MaxIOSize, Stripes: 1})
	if err != nil {
		t.Fatalf("an element of exactly MaxIOSize refused: %v", err)
	}
	v.Close()
}
