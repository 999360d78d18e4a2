// Package shard stripes one logical address space across many
// shifted-mirror groups and routes every byte through an extent table.
//
// The paper's shifted arrangement fixes rebuild fan-out *within* one
// n×n mirror group; this package is the layer above it: a
// ShardedVolume owns a set of cluster.Volume children ("groups"),
// interleaves logical stripes across them, and reports every backend
// device's state as a PlacementTable read from the children on demand.
// A rebuild is therefore confined to its group — backends in other
// groups serve zero rebuild-source elements and their read latency is
// untouched — while capacity and aggregate bandwidth grow with the
// group count instead of being capped at n disks.
//
// Address-space math: every group shares the same n and element size,
// so one stripe holds stripeBytes = n²·elementSize logical bytes.
// The extent table maps logical stripe slot k to a (group, physical
// stripe) home; New deals stripes round-robin across groups so large
// reads naturally span group boundaries and spread across children.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/fanout"
	"shiftedmirror/internal/raid"

	"shiftedmirror/internal/obs"
)

// Shard-level errors.
var (
	// ErrNoGroup is returned for an unknown group id.
	ErrNoGroup = errors.New("shard: no such group")
	// ErrLastGroup is returned when removal would leave zero groups.
	ErrLastGroup = errors.New("shard: cannot remove the last group")
	// ErrGroupDegraded is returned when a group with non-online devices
	// is asked to leave the volume — rebuild it first.
	ErrGroupDegraded = errors.New("shard: group has non-online devices")
	// ErrMigration is returned when a topology change collides with an
	// extent migration in flight or pending — a cancelled RemoveGroup
	// leaves its plan persisted, and retrying that same removal to
	// completion is the only topology change allowed until it finishes.
	ErrMigration = errors.New("shard: extent migration in progress")
)

// Extent maps one logical stripe slot to its physical home: a group id
// and a stripe index within that group's child volume.
type Extent struct {
	Group  int `json:"group"`
	Stripe int `json:"stripe"`
}

// Config tunes a ShardedVolume.
type Config struct {
	// MaxConcurrentRebuilds bounds how many groups the rebuild scheduler
	// drives at once (default 2). Within one group rebuilds run
	// sequentially — the group's backends are the bottleneck anyway.
	MaxConcurrentRebuilds int
	// Metrics, when set, registers the sm_shard_* series plus each
	// child's sm_cluster_* series labeled group="<id>" on the registry.
	// Children must NOT be built with cluster.Config.Metrics set to the
	// same registry, or the unlabeled series would collide.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentRebuilds <= 0 {
		c.MaxConcurrentRebuilds = 2
	}
	return c
}

// group binds a stable id to one child volume. Ids are never reused
// across add/remove cycles, so metric labels and placement history stay
// unambiguous.
type group struct {
	id  int
	vol *cluster.Volume
	// refs counts management operations (scrub, rebuild, placement and
	// stats reads) using vol outside the volume lock;
	// RemoveGroup waits for it to drain before closing the child, so
	// none of them ever sees a closed volume.
	refs sync.WaitGroup
}

// removalState is the persisted plan of an in-flight RemoveGroup: the
// leaving group, the surviving logical slots still homed on it, and the
// freed physical home each one migrates into. The plan outlives a
// cancelled call so a retry resumes the original src→dst pairing —
// re-deriving it from the half-migrated extent table would compute a
// larger survivor count (migrated slots no longer look gid-owned) and
// alias two logical slots onto one physical stripe.
type removalState struct {
	gid    int
	srcs   []int    // logical slots still homed on gid, ascending
	dsts   []Extent // freed physical homes from the discarded tail, ascending
	next   int      // first pair not yet migrated
	active bool     // a RemoveGroup call is driving the plan right now
}

// ShardedVolume is a logical volume striped across shifted-mirror
// groups. It implements the same context-first surface as
// cluster.Volume (ReadAtCtx/WriteAtCtx/RebuildDisk/Scrub) with disk
// operations additionally keyed by group id.
type ShardedVolume struct {
	mu       sync.RWMutex
	n        int
	elemSize int64
	stripeB  int64 // n²·elementSize: logical bytes per stripe slot
	groups   map[int]*group
	order    []int // group ids, add order
	extents  []Extent
	nextID   int
	removal  *removalState // non-nil while a RemoveGroup is in flight or pending retry
	cfg      Config
	stats    shardStats

	// workers run the group legs of a request beyond the one on the
	// calling goroutine (fanoutGroups), calls recycles the requests' leg
	// scratch. At most as many workers stay parked as the groups New was
	// given have backends: a leg is one op on a group's volume and holds
	// at least one of its backends' exchanges while it runs. Close
	// releases them.
	workers *fanout.Workers[groupJob]
	calls   sync.Pool

	// migrateHook, when non-nil, runs outside the lock after each
	// migrated extent with the number of pairs completed so far — test
	// instrumentation for cancel/retry coverage.
	migrateHook func(migrated int)
}

// New builds a ShardedVolume over already-open child volumes. All
// children must share the same n and element size (stripe counts may
// differ); their stripes are interleaved round-robin into the logical
// address space, so a read spanning k stripe slots touches up to
// min(k, groups) children concurrently.
func New(children []*cluster.Volume, cfg Config) (*ShardedVolume, error) {
	if len(children) == 0 {
		return nil, errors.New("shard: need at least one group")
	}
	n, elemSize := children[0].N(), children[0].ElementSize()
	for i, c := range children {
		if c.N() != n || c.ElementSize() != elemSize {
			return nil, fmt.Errorf("shard: group %d geometry %d×%d-byte differs from group 0's %d×%d-byte",
				i, c.N(), c.ElementSize(), n, elemSize)
		}
	}
	s := &ShardedVolume{
		n:        n,
		elemSize: elemSize,
		stripeB:  int64(n) * int64(n) * elemSize,
		groups:   map[int]*group{},
		cfg:      cfg.withDefaults(),
	}
	s.stats.init()
	backends := 0
	for _, c := range children {
		s.attach(c)
		backends += len(c.Arch().Disks())
	}
	s.workers = fanout.New(backends, s.runGroupJob)
	// Round-robin deal: row r takes stripe r from every group that still
	// has one, in group order. Deterministic, and guarantees that
	// consecutive logical stripes live on different groups while every
	// group keeps capacity (a shorter group simply drops out of later
	// rows).
	for r := 0; ; r++ {
		progressed := false
		for _, gid := range s.order {
			if r < s.groups[gid].vol.Stripes() {
				s.extents = append(s.extents, Extent{Group: gid, Stripe: r})
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if s.cfg.Metrics != nil {
		s.registerMetrics(s.cfg.Metrics)
		for _, gid := range s.order {
			s.groups[gid].vol.RegisterMetrics(s.cfg.Metrics, "group", strconv.Itoa(gid))
		}
	}
	return s, nil
}

// Open builds the child volumes from backend address maps (one map per
// group) and shards across them — the option-first constructor. The
// same architecture (and so the same layout) and options apply to every
// group; do not pass an option that sets cluster.Config.Metrics (set
// this Config's Metrics instead, which labels each group's series).
func Open(arch *raid.Mirror, backends []map[raid.DiskID]string, cfg Config, copts ...cluster.Option) (*ShardedVolume, error) {
	children := make([]*cluster.Volume, 0, len(backends))
	fail := func(err error) (*ShardedVolume, error) {
		for _, c := range children {
			c.Close()
		}
		return nil, err
	}
	for i, b := range backends {
		c, err := cluster.Open(arch, b, copts...)
		if err != nil {
			return fail(fmt.Errorf("shard: group %d: %w", i, err))
		}
		children = append(children, c)
	}
	s, err := New(children, cfg)
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// attach registers a child under the next stable id. Caller holds no
// lock (construction) or the write lock (AddGroup).
func (s *ShardedVolume) attach(c *cluster.Volume) int {
	gid := s.nextID
	s.nextID++
	s.groups[gid] = &group{id: gid, vol: c}
	s.order = append(s.order, gid)
	return gid
}

// Close releases every child volume's connections and the parked group
// workers.
func (s *ShardedVolume) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers.Close()
	for _, g := range s.groups {
		g.vol.Close()
	}
}

// Size returns the logical capacity in bytes.
func (s *ShardedVolume) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.extents)) * s.stripeB
}

// ElementSize returns the striping unit shared by every group.
func (s *ShardedVolume) ElementSize() int64 { return s.elemSize }

// N returns the per-group data-disk count.
func (s *ShardedVolume) N() int { return s.n }

// Groups returns the live group ids in ascending order.
func (s *ShardedVolume) Groups() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]int(nil), s.order...)
	sort.Ints(out)
	return out
}

// GroupVolume exposes one child volume for tooling (smtool, recon
// harnesses). The child owns its disks' state, so a Fail or rebuild
// issued on it directly shows in Placement like one issued through the
// ShardedVolume; only the sm_shard_rebuild* counters miss it.
func (s *ShardedVolume) GroupVolume(gid int) (*cluster.Volume, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.groups[gid]
	if !ok {
		return nil, false
	}
	return g.vol, true
}

// ExtentTable returns a copy of the logical-stripe→(group, stripe) map.
func (s *ShardedVolume) ExtentTable() []Extent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Extent(nil), s.extents...)
}

// Placement returns the replica/placement table as of now, read from
// every group's child volume.
func (s *ShardedVolume) Placement() *PlacementTable {
	gs := s.pinAll()
	defer unpinAll(gs)
	return newPlacementTable(gs)
}

// segment is one contiguous piece of a request routed to one group.
type segment struct {
	gid      int
	childOff int64
	lo, hi   int // buffer range [lo, hi)
}

// segments splits buffer range [0, n) at logical offset off along
// extent boundaries, merges runs that stay contiguous within one group,
// and appends the pieces to segs — callers pass a small stack array, so
// the usual one- or two-segment request allocates nothing. Caller holds
// s.mu (read or write).
func (s *ShardedVolume) segments(segs []segment, off int64, n int) []segment {
	ext := int(off / s.stripeB)
	inner := off % s.stripeB
	for at := 0; at < n; {
		e := s.extents[ext]
		chunk := s.stripeB - inner
		if rem := int64(n - at); chunk > rem {
			chunk = rem
		}
		childOff := int64(e.Stripe)*s.stripeB + inner
		if len(segs) > 0 {
			last := &segs[len(segs)-1]
			if last.gid == e.Group && last.childOff+int64(last.hi-last.lo) == childOff {
				last.hi += int(chunk)
				at = last.hi
				ext++
				inner = 0
				continue
			}
		}
		segs = append(segs, segment{gid: e.Group, childOff: childOff, lo: at, hi: at + int(chunk)})
		at += int(chunk)
		ext++
		inner = 0
	}
	return segs
}

// stackSegments is how many segments a request may split into before
// its segment list (and a group's piece list) moves to the heap.
const stackSegments = 4

// fanout runs the read or write of p's segments against their groups:
// each group's segments as one vectored op on its child volume, the
// groups concurrently, and returns the first error. A request inside
// one group — every request smaller than a stripe that does not
// straddle a boundary — runs on the calling goroutine. Caller holds
// s.mu.RLock across the call, so topology cannot change under in-flight
// I/O.
func (s *ShardedVolume) fanout(ctx context.Context, p []byte, segs []segment, write bool) error {
	single := true
	for _, sg := range segs[1:] {
		if sg.gid != segs[0].gid {
			single = false
			break
		}
	}
	if single {
		return s.runGroup(ctx, segs[0].gid, p, segs, write)
	}
	s.stats.boundarySplits.Inc()
	return s.fanoutGroups(ctx, p, segs, write)
}

// groupCall is one multi-group request as its group legs see it: the
// request, a copy of its segments, and one verdict per segment — errs[i]
// is the verdict of the group whose first segment is segs[i]. Calls are
// pooled per ShardedVolume and keep their slices' capacity, so a request
// that spans groups allocates nothing here.
type groupCall struct {
	ctx   context.Context
	p     []byte
	segs  []segment
	errs  []error
	write bool
	wg    sync.WaitGroup
}

// groupJob is one group's leg of a call, handed to a group worker: the
// group of the call's i-th segment.
type groupJob struct {
	c *groupCall
	i int
}

// runGroupJob is the group workers' job: run the leg, keep its verdict,
// tell the call it is done.
func (s *ShardedVolume) runGroupJob(j groupJob) {
	c := j.c
	c.errs[j.i] = s.runGroup(c.ctx, c.segs[j.i].gid, c.p, c.segs, c.write)
	c.wg.Done()
}

// fanoutGroups is fanout's multi-group leg: one vectored op per group
// that owns a segment, the first segment's group on the calling
// goroutine and every other on one of the volume's group workers. It
// returns the first error in segment order.
func (s *ShardedVolume) fanoutGroups(ctx context.Context, p []byte, segs []segment, write bool) error {
	c, _ := s.calls.Get().(*groupCall)
	if c == nil {
		c = new(groupCall)
	}
	c.ctx, c.p, c.write = ctx, p, write
	c.segs = append(c.segs[:0], segs...)
	c.errs = append(c.errs[:0], make([]error, len(segs))...)
	for i, sg := range c.segs[1:] {
		if slices.ContainsFunc(c.segs[:i+1], func(prev segment) bool { return prev.gid == sg.gid }) {
			continue // the group is already running
		}
		c.wg.Add(1)
		s.workers.Go(groupJob{c: c, i: i + 1})
	}
	c.errs[0] = s.runGroup(ctx, c.segs[0].gid, p, c.segs, write)
	c.wg.Wait()
	var first error
	for _, err := range c.errs {
		if err != nil {
			first = err
			break
		}
	}
	clear(c.errs)
	c.ctx, c.p, c.segs, c.errs = nil, nil, c.segs[:0], c.errs[:0]
	s.calls.Put(c)
	return first
}

// runGroup drives group gid's segments of segs as one vectored op on
// its child volume: one plan and one fan-out round for all of them. The
// pieces go in ascending child offset, which the volume requires — a
// group's child stripes follow logical order after New's round-robin
// deal, but not necessarily after RemoveGroup has migrated extents into
// freed stripes — sorted by insertion into a stack array. Segments never
// share a child stripe: each covers its own extents.
func (s *ShardedVolume) runGroup(ctx context.Context, gid int, p []byte, segs []segment, write bool) error {
	var stack [stackSegments]cluster.Piece
	pieces := stack[:0]
	for _, sg := range segs {
		if sg.gid != gid {
			continue
		}
		pc := cluster.Piece{Buf: p[sg.lo:sg.hi], Off: sg.childOff}
		i := len(pieces)
		pieces = append(pieces, pc)
		for ; i > 0 && pieces[i-1].Off > pc.Off; i-- {
			pieces[i] = pieces[i-1]
		}
		pieces[i] = pc
	}
	vol := s.groups[gid].vol
	var err error
	if write {
		err = vol.WritePiecesCtx(ctx, pieces)
	} else {
		err = vol.ReadPiecesCtx(ctx, pieces)
	}
	if err != nil {
		return fmt.Errorf("shard: group %d: %w", gid, err)
	}
	return nil
}

// ReadAt implements io.ReaderAt.
func (s *ShardedVolume) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx reads len(p) bytes at the logical offset, splitting the
// span at group boundaries and fanning out to the owning children
// concurrently. The io.ReaderAt EOF contract matches cluster.Volume:
// off at or past the logical end returns (0, io.EOF); a read clamped by
// the end returns (n, io.EOF) with n < len(p).
func (s *ShardedVolume) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("shard: negative offset %d", off)
	}
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	size := int64(len(s.extents)) * s.stripeB
	if off >= size {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > size {
		n = int(size - off)
	}
	if n == 0 {
		return 0, nil
	}
	var stack [stackSegments]segment
	if err := s.fanout(ctx, p, s.segments(stack[:0], off, n), false); err != nil {
		return 0, err
	}
	s.stats.reads.Inc()
	s.stats.readBytes.Add(int64(n))
	s.stats.readLat.Observe(time.Since(start))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (s *ShardedVolume) WriteAt(p []byte, off int64) (int, error) {
	return s.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx writes len(p) bytes at the logical offset with the same
// split-and-fan-out routing as ReadAtCtx. Writes past the logical end
// are an error, matching cluster.Volume.
func (s *ShardedVolume) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("shard: negative offset %d", off)
	}
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	size := int64(len(s.extents)) * s.stripeB
	if off > size-int64(len(p)) {
		return 0, fmt.Errorf("shard: write of %d bytes at offset %d exceeds volume size %d", len(p), off, size)
	}
	if len(p) == 0 {
		return 0, nil
	}
	var stack [stackSegments]segment
	if err := s.fanout(ctx, p, s.segments(stack[:0], off, len(p)), true); err != nil {
		return 0, err
	}
	s.stats.writes.Inc()
	s.stats.writeBytes.Add(int64(len(p)))
	s.stats.writeLat.Observe(time.Since(start))
	return len(p), nil
}

// pin resolves a group id under the read lock and holds its refcount:
// a concurrent RemoveGroup waits for every pin to drop before closing
// the child volume. Every successful pin must be paired with unpin.
func (s *ShardedVolume) pin(gid int) (*group, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoGroup, gid)
	}
	g.refs.Add(1)
	return g, nil
}

// pinAll pins every live group in add order; release with unpinAll.
func (s *ShardedVolume) pinAll() []*group {
	s.mu.RLock()
	defer s.mu.RUnlock()
	gs := make([]*group, 0, len(s.groups))
	for _, gid := range s.order {
		g := s.groups[gid]
		g.refs.Add(1)
		gs = append(gs, g)
	}
	return gs
}

func (g *group) unpin() { g.refs.Done() }

func unpinAll(gs []*group) {
	for _, g := range gs {
		g.unpin()
	}
}

// Fail declares one disk's content lost in the given group; its
// placement entry reads dead from then on.
func (s *ShardedVolume) Fail(gid int, id raid.DiskID) error {
	g, err := s.pin(gid)
	if err != nil {
		return err
	}
	defer g.unpin()
	return g.vol.Fail(id)
}

// ReplaceBackend attaches a fresh backend to a disk slot of the given
// group; a failed slot's placement entry becomes replacement-pending,
// eligible for the rebuild scheduler.
func (s *ShardedVolume) ReplaceBackend(gid int, id raid.DiskID, addr string) error {
	g, err := s.pin(gid)
	if err != nil {
		return err
	}
	defer g.unpin()
	return g.vol.ReplaceBackend(id, addr)
}

// RebuildDisk reconstructs one disk of the given group through its
// child volume. The placement entry reads rebuilding for the duration,
// online on success, and replacement-pending on failure (with the
// incompleteness the watermark got to); a rebuild refused because the
// disk is not failed changes nothing.
func (s *ShardedVolume) RebuildDisk(ctx context.Context, gid int, id raid.DiskID) error {
	g, err := s.pin(gid)
	if err != nil {
		return err
	}
	defer g.unpin()
	s.stats.rebuildActive.Add(1)
	err = g.vol.RebuildDisk(ctx, id)
	s.stats.rebuildActive.Add(-1)
	if err != nil {
		s.stats.rebuildErrors.Inc()
		return fmt.Errorf("shard: group %d: %w", gid, err)
	}
	s.stats.rebuilds.Inc()
	return nil
}

// Scrub verifies every group's replicas and merges the reports. All
// groups scrub concurrently. A replica-mismatch error wins over
// degraded-skip errors; either way the merged report says what was
// covered.
func (s *ShardedVolume) Scrub(ctx context.Context) (ScrubReport, error) {
	gs := s.pinAll()
	defer unpinAll(gs)

	type result struct {
		gid    int
		report cluster.ScrubReport
		err    error
	}
	results := make([]result, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			r, err := g.vol.Scrub(ctx)
			results[i] = result{gid: g.id, report: r, err: err}
		}(i, g)
	}
	wg.Wait()

	var merged ScrubReport
	var degraded, hard error
	for _, r := range results {
		merged.ElementsCompared += r.report.ElementsCompared
		merged.ChecksumCompared += r.report.ChecksumCompared
		for _, id := range r.report.Skipped {
			merged.Skipped = append(merged.Skipped, GroupDisk{Group: r.gid, Disk: id.String()})
		}
		if r.err != nil {
			if errors.Is(r.err, cluster.ErrDegraded) {
				if degraded == nil {
					degraded = fmt.Errorf("shard: group %d: %w", r.gid, r.err)
				}
			} else if hard == nil {
				hard = fmt.Errorf("shard: group %d: %w", r.gid, r.err)
			}
		}
	}
	if hard != nil {
		return merged, hard
	}
	return merged, degraded
}

// GroupDisk names one disk slot of one group.
type GroupDisk struct {
	Group int    `json:"group"`
	Disk  string `json:"disk"`
}

// ScrubReport is the merged coverage of a sharded scrub pass.
type ScrubReport struct {
	ElementsCompared int64       `json:"elements_compared"`
	ChecksumCompared int64       `json:"checksum_compared"`
	Skipped          []GroupDisk `json:"skipped,omitempty"`
}

// AddGroup attaches a new group online. Its stripes extend the logical
// address space at the tail — capacity grows immediately, no data
// moves. Returns the new group's stable id.
func (s *ShardedVolume) AddGroup(c *cluster.Volume) (int, error) {
	if c.N() != s.n || c.ElementSize() != s.elemSize {
		return 0, fmt.Errorf("shard: new group geometry %d×%d-byte differs from volume's %d×%d-byte",
			c.N(), c.ElementSize(), s.n, s.elemSize)
	}
	s.mu.Lock()
	if s.removal != nil {
		s.mu.Unlock()
		return 0, ErrMigration
	}
	gid := s.attach(c)
	for r := 0; r < c.Stripes(); r++ {
		s.extents = append(s.extents, Extent{Group: gid, Stripe: r})
	}
	s.mu.Unlock()
	if s.cfg.Metrics != nil {
		c.RegisterMetrics(s.cfg.Metrics, "group", strconv.Itoa(gid))
	}
	return gid, nil
}

// RemoveGroup detaches one group online, shrinking the logical address
// space by the group's stripe count. The logical tail [newSize,
// oldSize) is discarded the moment removal starts (the exact inverse
// of AddGroup — vacate it first): the extent table is truncated up
// front, so tail reads hit io.EOF and tail writes fail out-of-range
// instead of aliasing the freed physical stripes that become migration
// destinations. Every surviving logical stripe that lived on the
// leaving group is then migrated into those freed stripes, one extent
// at a time under short exclusive-lock holds, so reads and writes keep
// flowing between stripe copies.
//
// ctx cancels between extents, leaving a consistent half-migrated
// volume plus the persisted migration plan; calling RemoveGroup again
// with the same gid resumes that plan where it stopped. Until the
// retry completes, every other topology change (AddGroup, RemoveGroup
// of a different group) fails with ErrMigration.
//
// Removal is refused while the group has non-online devices (rebuild
// first) and for the last remaining group; a resumed removal skips the
// degraded check — the tail is already gone, so finishing the
// migration (degraded reads included) is strictly better than wedging.
func (s *ShardedVolume) RemoveGroup(ctx context.Context, gid int) error {
	s.mu.Lock()
	g, ok := s.groups[gid]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoGroup, gid)
	}
	plan := s.removal
	if plan != nil && (plan.gid != gid || plan.active) {
		s.mu.Unlock()
		return ErrMigration
	}
	if plan == nil {
		if len(s.groups) == 1 {
			s.mu.Unlock()
			return ErrLastGroup
		}
		for _, d := range g.vol.Disks() {
			if d.State != DeviceOnline {
				s.mu.Unlock()
				return fmt.Errorf("%w: group %d disk %v is %v", ErrGroupDegraded, gid, d.ID, d.State)
			}
		}
		removed := 0
		for _, e := range s.extents {
			if e.Group == gid {
				removed++
			}
		}
		newCount := len(s.extents) - removed
		// Pair each surviving logical slot that lives on the leaving
		// group (ascending) with a freed physical stripe from the
		// discarded tail (ascending). The counts match by construction:
		// the tail holds `removed` slots total, of which the gid-owned
		// ones need no new home, and below the cut exactly
		// (gid-slots − gid-tail-slots) need one — the same as the
		// non-gid tail slots freeing up.
		plan = &removalState{gid: gid}
		for i := 0; i < newCount; i++ {
			if s.extents[i].Group == gid {
				plan.srcs = append(plan.srcs, i)
			}
		}
		for j := newCount; j < len(s.extents); j++ {
			if s.extents[j].Group != gid {
				plan.dsts = append(plan.dsts, s.extents[j])
			}
		}
		// Truncate now: the freed tail stripes must stop being
		// addressable before the first one is reused as a migration
		// destination, and the truncated table is also why the plan has
		// to persist — it cannot be re-derived after this point.
		s.extents = s.extents[:newCount]
		s.removal = plan
	}
	plan.active = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		plan.active = false
		s.mu.Unlock()
	}()

	buf := make([]byte, s.stripeB)
	for k := plan.next; k < len(plan.srcs); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		src, dst := s.extents[plan.srcs[k]], plan.dsts[k]
		srcVol := s.groups[src.Group].vol
		dstVol := s.groups[dst.Group].vol
		if _, err := srcVol.ReadAtCtx(ctx, buf, int64(src.Stripe)*s.stripeB); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("shard: migrate extent %d from group %d: %w", plan.srcs[k], src.Group, err)
		}
		if _, err := dstVol.WriteAtCtx(ctx, buf, int64(dst.Stripe)*s.stripeB); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("shard: migrate extent %d to group %d: %w", plan.srcs[k], dst.Group, err)
		}
		s.extents[plan.srcs[k]] = dst
		plan.next = k + 1
		s.stats.migratedExtents.Inc()
		s.mu.Unlock()
		if s.migrateHook != nil {
			s.migrateHook(k + 1)
		}
	}

	s.mu.Lock()
	delete(s.groups, gid)
	for i, id := range s.order {
		if id == gid {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.removal = nil
	s.mu.Unlock()
	// Management operations that pinned the group before it left the
	// map may still be using the child; let them drain before Close.
	g.refs.Wait()
	g.vol.Close()
	// The removed group's metric series stay registered; stable group
	// ids guarantee a future AddGroup never collides with them.
	return nil
}
