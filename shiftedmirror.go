// Package shiftedmirror is a reproduction of "Shifted Element Arrangement
// in Mirror Disk Arrays for High Data Availability during Reconstruction"
// (Luo, Shu, Zhao — ICPP 2012).
//
// The shifted arrangement stores the replica of data element a[i][j] at
// mirror disk (i+j) mod n, row i, spreading each disk's replicas across
// the whole mirror array. A failed disk is then rebuilt with parallel
// single-element reads from every surviving disk instead of a sequential
// scan of one replica disk, improving data availability during
// reconstruction by a factor of n (mirror method) or (2n+1)/4 (mirror
// method with parity) while keeping writes at the theoretical optimum.
//
// This package is the public facade over the implementation:
//
//   - arrangements and their three properties (internal/layout)
//   - RAID architectures and recovery/write planners (internal/raid)
//   - byte-level reconstruction with verification (internal/recon)
//   - a calibrated disk/array simulator (internal/disk, internal/array)
//   - the paper's closed-form analysis (internal/analysis)
//   - regeneration of every table and figure (internal/experiments)
//
// Quick start:
//
//	arch := shiftedmirror.NewShiftedMirror(5)
//	plan, _ := arch.RecoveryPlan([]shiftedmirror.DiskID{{Role: shiftedmirror.RoleData, Index: 2}})
//	fmt.Println(plan.AvailAccesses()) // 1 — versus 5 for the traditional mirror
package shiftedmirror

import (
	"time"

	"shiftedmirror/internal/analysis"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/disk"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
	"shiftedmirror/internal/recon"
	"shiftedmirror/internal/shard"
	"shiftedmirror/internal/workload"
)

// Re-exported core types. The aliases keep the full documented API of the
// internal packages available through the public import path.
type (
	// Arrangement maps data-array element addresses to mirror-array
	// addresses within an n×n stripe.
	Arrangement = layout.Arrangement
	// Addr is a (disk, row) element address within a stripe.
	Addr = layout.Addr
	// Properties reports which of the paper's properties P1-P3 an
	// arrangement satisfies.
	Properties = layout.Properties

	// Architecture is a RAID architecture planner.
	Architecture = raid.Architecture
	// Mirror is the mirror-method family (plain, with parity,
	// three-mirror).
	Mirror = raid.Mirror
	// DiskID names a disk: role (data/mirror/parity) and index.
	DiskID = raid.DiskID
	// Role distinguishes the arrays of an architecture.
	Role = raid.Role
	// ElementRef addresses one element within a stripe.
	ElementRef = raid.ElementRef
	// Plan is a per-stripe reconstruction prescription.
	Plan = raid.Plan
	// WritePlan is a per-stripe write prescription.
	WritePlan = raid.WritePlan
	// WriteStrategy selects the parity update path for partial rows.
	WriteStrategy = raid.WriteStrategy

	// DiskParams is the simulated drive model.
	DiskParams = disk.Params
	// SimConfig parametrizes the timing simulation.
	SimConfig = recon.Config
	// Simulator runs reconstructions and write workloads on simulated
	// arrays.
	Simulator = recon.Simulator
	// ReconStats reports a simulated reconstruction.
	ReconStats = recon.ReconStats
	// WriteStats reports a simulated write workload.
	WriteStats = recon.WriteStats
	// OnlineStats reports an on-line reconstruction serving user reads.
	OnlineStats = recon.OnlineStats
	// Store holds byte-level stripe contents for verification.
	Store = recon.Store

	// WriteOp is one user write of the Fig 10 workload.
	WriteOp = workload.WriteOp
	// ReadOp is one user read served during on-line reconstruction.
	ReadOp = workload.ReadOp

	// Device is the in-process fault-tolerant block device: a
	// ClusterVolume whose disks are stores in this process (NewDevice,
	// CreateDeviceOnFiles, OpenDeviceOnFiles) — the same core as over
	// the wire, with replica and parity maintenance, degraded reads,
	// failure injection (Fail), rebuild in place (RebuildDisk), scrubbing
	// and Health.
	Device = cluster.Volume
)

// Error taxonomy: the sentinels of the one volume core, so
// errors.Is(err, shiftedmirror.ErrX) holds for an in-process Device, a
// ClusterVolume and a ShardedVolume alike. Use errors.Is/errors.As on
// these instead of matching error strings.
var (
	// ErrDataLoss is returned by reads (Device or ClusterVolume) that
	// exceed the surviving redundancy.
	ErrDataLoss = cluster.ErrDataLoss
	// ErrScrubMismatch is returned by Scrub on inconsistency.
	ErrScrubMismatch = cluster.ErrScrubMismatch
	// ErrDiskFailed is returned for operations addressing a disk that is
	// currently marked failed.
	ErrDiskFailed = cluster.ErrDiskFailed
	// ErrDegraded is returned (wrapped, alongside a valid report) by
	// ClusterVolume.Scrub when at least one disk's content went
	// unverified: the volume serves, but "clean" cannot be claimed.
	ErrDegraded = cluster.ErrDegraded
	// ErrBackendDead is returned (wrapped) when a cluster backend is
	// marked dead and its probe window has not reopened.
	ErrBackendDead = cluster.ErrBackendDead
	// ErrRebuildInProgress is returned by ClusterVolume.RebuildDisk when
	// the disk already has a rebuild in flight.
	ErrRebuildInProgress = cluster.ErrRebuildInProgress
)

// RemoteError is a store-level error relayed verbatim from a served
// backend — the "application error" side of the blockserver taxonomy
// (the connection stays usable). Anything else from a remote op is
// transport trouble: the connection is poisoned and replaced. Use
// errors.As with *RemoteError, or IsRemoteError.
type RemoteError = blockserver.RemoteError

// IsRemoteError reports whether err is (or wraps) a RemoteError.
func IsRemoteError(err error) bool { return blockserver.IsRemote(err) }

// NewDevice builds an in-memory fault-tolerant block device over a
// mirror-family architecture with the given element size and stripe
// count (logical capacity = stripes*n*n*elementSize bytes). It panics
// on a geometry the volume rejects.
func NewDevice(arch *Mirror, elementSize int64, stripes int) *Device {
	stores := map[DiskID]*dev.MemStore{}
	for _, id := range arch.Disks() {
		stores[id] = dev.NewMemStore(int64(stripes) * int64(arch.N()) * elementSize)
	}
	d, err := cluster.NewLocal(arch, stores, cluster.Config{ElementSize: elementSize, Stripes: stripes})
	if err != nil {
		panic(err)
	}
	return d
}

// CreateDeviceOnFiles builds a file-backed device under dir (one file
// per disk plus a manifest) so it can be reopened with
// OpenDeviceOnFiles. Close releases the files.
func CreateDeviceOnFiles(arch *Mirror, elementSize int64, stripes int, dir string) (*Device, error) {
	files, err := dev.CreateOnFiles(arch, elementSize, stripes, dir)
	if err != nil {
		return nil, err
	}
	return deviceOnFiles(arch, elementSize, stripes, files)
}

// OpenDeviceOnFiles reopens a device created by CreateDeviceOnFiles,
// preserving its contents.
func OpenDeviceOnFiles(dir string) (*Device, error) {
	arch, m, files, err := dev.OpenOnFiles(dir)
	if err != nil {
		return nil, err
	}
	return deviceOnFiles(arch, m.ElementSize, m.Stripes, files)
}

// deviceOnFiles stripes a device over its disk files, closing them if
// it cannot.
func deviceOnFiles(arch *Mirror, elementSize int64, stripes int, files map[DiskID]*dev.FileStore) (*Device, error) {
	d, err := cluster.NewLocal(arch, files, cluster.Config{ElementSize: elementSize, Stripes: stripes})
	if err != nil {
		for _, f := range files {
			f.Close()
		}
	}
	return d, err
}

// Disk roles.
const (
	RoleData    = raid.RoleData
	RoleMirror  = raid.RoleMirror
	RoleMirror2 = raid.RoleMirror2
	RoleParity  = raid.RoleParity
	RoleParity2 = raid.RoleParity2
)

// Write strategies.
const (
	WriteAuto        = raid.WriteAuto
	WriteRMW         = raid.WriteRMW
	WriteReconstruct = raid.WriteReconstruct
)

// NewTraditionalArrangement returns the classic RAID-1 identity
// arrangement over n disks (NewArrangement("traditional", n)).
func NewTraditionalArrangement(n int) Arrangement { return layout.NewTraditional(n) }

// NewShiftedArrangement returns the paper's arrangement:
// a[i][j] -> b[(i+j) mod n][i] (NewArrangement("shifted", n)).
func NewShiftedArrangement(n int) Arrangement { return layout.NewShifted(n) }

// NewIteratedArrangement applies the Fig 8 transformation k times
// (ParseArrangement("iterated:K", n); the registry's "iterated" is k=3).
func NewIteratedArrangement(n, k int) Arrangement { return layout.NewIterated(n, k) }

// LayoutNames lists every layout family registered with the catalog, in
// sorted order — the names NewArrangement and ParseArrangement accept.
func LayoutNames() []string { return layout.Names() }

// NewArrangement builds a registered layout family by name at size n:
// "traditional", "shifted", "iterated", "general-shifted", "declustered"
// (parity-declustered mirror placement over 2n pooled disks), or
// "rotated" (grouped rotation trading rebuild fan-out for degraded-read
// locality). See LayoutNames for the live list.
func NewArrangement(name string, n int) (Arrangement, error) { return layout.New(name, n) }

// CheckProperties evaluates P1, P2 and P3 for an arrangement.
func CheckProperties(a Arrangement) Properties { return layout.Check(a) }

// NewTraditionalMirror returns the traditional mirror method over n data
// disks (fault tolerance one).
func NewTraditionalMirror(n int) *Mirror { return raid.NewMirror(layout.NewTraditional(n)) }

// NewShiftedMirror returns the shifted mirror method over n data disks
// (fault tolerance one, §IV).
func NewShiftedMirror(n int) *Mirror { return raid.NewMirror(layout.NewShifted(n)) }

// NewTraditionalMirrorWithParity returns the traditional mirror method
// with parity (fault tolerance two).
func NewTraditionalMirrorWithParity(n int) *Mirror {
	return raid.NewMirrorWithParity(layout.NewTraditional(n))
}

// NewShiftedMirrorWithParity returns the shifted mirror method with
// parity (fault tolerance two, §V).
func NewShiftedMirrorWithParity(n int) *Mirror {
	return raid.NewMirrorWithParity(layout.NewShifted(n))
}

// NewShiftedThreeMirror returns the three-mirror extension (§VIII future
// work) with pairwise-parallel shifted arrangements (coefficient pairs
// (1,1) and (2,1), whose determinant -1 is a unit for every n, so
// reconstruction parallelism holds at any n). For even n the second
// mirror array gives up Property 3: a row write to it may need two
// accesses. n must be at least 3 (at n=2 the coefficient 2 vanishes).
// See layout.GeneralShifted for the number theory.
func NewShiftedThreeMirror(n int) *Mirror {
	return raid.NewThreeMirror(layout.NewGeneralShifted(n, 1, 1), layout.NewGeneralShifted(n, 2, 1))
}

// NewMirrorWithArrangement builds a plain mirror method over any
// arrangement: a registered family (NewArrangement, ParseArrangement) or
// a custom one (e.g. found by layout.SearchValid). The architecture
// names the layout — a cluster or sharded volume built over it places
// every copy where the arrangement says, and a pooled family such as
// "declustered" spreads them over all 2n backends.
func NewMirrorWithArrangement(a Arrangement) *Mirror { return raid.NewMirror(a) }

// NewRAID6 returns the RAID-6 baseline over n data disks (shortened
// EVENODD, as in the paper's comparison).
func NewRAID6(n int) Architecture { return raid.NewRAID6EvenOdd(n) }

// SavvioDisk returns the paper's drive model (Seagate Savvio 10K.3).
func SavvioDisk() DiskParams { return disk.Savvio10K3() }

// DefaultSimConfig returns the standard simulation configuration: 4 MB
// elements on the Savvio model with the paper's lockstep parallel-access
// semantics.
func DefaultSimConfig() SimConfig { return recon.DefaultConfig() }

// NewSimulator binds an architecture to simulated disk arrays.
func NewSimulator(arch Architecture, cfg SimConfig) *Simulator {
	return recon.NewSimulator(arch, cfg)
}

// VerifyRecovery performs the paper's end-to-end correctness check:
// materialize stripes, fail the given disks, reconstruct, and compare
// bytes against the originals.
func VerifyRecovery(arch Architecture, stripes, payload int, seed int64, failed []DiskID) error {
	return recon.VerifyRecovery(arch, stripes, payload, seed, failed)
}

// AllSingleFailures enumerates every single-disk failure of an
// architecture.
func AllSingleFailures(arch Architecture) [][]DiskID { return raid.AllSingleFailures(arch) }

// AllDoubleFailures enumerates every double-disk failure of an
// architecture.
func AllDoubleFailures(arch Architecture) [][]DiskID { return raid.AllDoubleFailures(arch) }

// LargeWrites generates the paper's random large-write workload.
func LargeWrites(seed int64, count, n, stripes int) []WriteOp {
	return workload.LargeWrites(seed, count, n, stripes)
}

// UserReads generates a stream of user reads for on-line reconstruction.
func UserReads(seed int64, count, n, stripes int, meanInterarrival float64) []ReadOp {
	return workload.UserReads(seed, count, n, stripes, meanInterarrival)
}

// MirrorImprovement is the theoretical availability gain of the shifted
// mirror method: n.
func MirrorImprovement(n int) float64 { return analysis.MirrorImprovement(n) }

// MirrorParityImprovement is the theoretical availability gain of the
// shifted mirror method with parity: (2n+1)/4.
func MirrorParityImprovement(n int) float64 { return analysis.MirrorParityImprovement(n) }

// RenderLayout renders the data and mirror arrays of an arrangement side
// by side, as in the paper's layout figures.
func RenderLayout(a Arrangement) string { return layout.RenderPair(a) }

// ParseArrangement builds an arrangement from a textual spec:
// "traditional", "shifted", "iterated:K", "general:A,B", "rotated:G",
// or any registered layout name (see LayoutNames).
func ParseArrangement(spec string, n int) (Arrangement, error) { return layout.ParseSpec(spec, n) }

// DiskModels lists the built-in drive models by name ("savvio" — the
// paper's testbed drive — plus "nearline" and "ssd" for sensitivity
// studies).
func DiskModels() map[string]DiskParams { return disk.Models() }

// RepairRate maps an outstanding failure set to a repair rate (repairs
// per hour) for the reliability model.
type RepairRate = analysis.RepairRate

// ConstantRepair returns a RepairRate with a fixed mean time to repair.
func ConstantRepair(mttrHours float64) RepairRate { return analysis.ConstantRepair(mttrHours) }

// MTTDL computes the mean time to data loss (hours) of an architecture
// under independent disk failures at the given rate (failures per hour)
// and the given repair model. Use Simulator.RepairRate to derive the
// repair model from simulated reconstruction times.
func MTTDL(arch Architecture, failuresPerHour float64, repair RepairRate) (float64, error) {
	return analysis.MTTDL(arch, failuresPerHour, repair)
}

// Networked cluster volume: the element layout striped over one
// blockserver backend per disk, with failover, hedged reads, and
// one-pass parallel network reconstruction. See internal/cluster for
// the full API: the context-first data path is ReadAtCtx/WriteAtCtx/
// RebuildDisk(ctx, …)/Scrub(ctx); the plain io.ReaderAt/io.WriterAt
// methods are thin context.Background() wrappers.
type (
	// ClusterVolume is the networked volume (see NewClusterVolume).
	ClusterVolume = cluster.Volume
	// ClusterConfig is the struct-style volume configuration. New code
	// should prefer Options (NewClusterVolume's variadic arguments);
	// the struct remains for full-control callers via cluster.New.
	ClusterConfig = cluster.Config
	// ClusterStats is ClusterVolume.Stats()'s JSON-marshalable snapshot.
	ClusterStats = cluster.Stats
	// ClusterHealth is ClusterVolume.Health()'s snapshot.
	ClusterHealth = cluster.Health
	// ScrubReport is ClusterVolume.Scrub's coverage report.
	ScrubReport = cluster.ScrubReport

	// Registry collects metric series and renders Prometheus text
	// (serve it with obs.Serve or embed in an existing mux).
	Registry = obs.Registry
	// Tracer receives one Event per traced operation.
	Tracer = obs.Tracer
	// TracerFunc adapts a function to the Tracer interface.
	TracerFunc = obs.TracerFunc
	// Event is one traced operation.
	Event = obs.Event
)

// NewRegistry returns an empty metrics registry for WithMetrics.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Option configures cluster volumes (NewClusterVolume) and sharded
// volumes (NewShardedVolume) through one functional-option set,
// replacing ad-hoc ClusterConfig field fiddling. An option that applies
// to only one of them documents it; on the other it is a no-op.
type Option struct {
	cluster cluster.Option
	// shard is the sharded-volume side (NewShardedVolume); metrics
	// records WithMetrics' registry so the shard constructor can register
	// each group's series under a group="<id>" label instead of letting
	// the children collide on unlabeled names.
	shard   func(*shard.Config)
	metrics *obs.Registry
}

// WithGeometry sets the cluster volume's element size in bytes and
// stripe count (logical capacity = stripes*n*n*elementSize).
func WithGeometry(elementSize int64, stripes int) Option {
	return Option{cluster: cluster.WithGeometry(elementSize, stripes)}
}

// WithTimeouts sets the cluster volume's per-connection dial timeout
// and per-operation timeout. The optional probe durations tune the
// dead-backend recovery cadence: probe[0] is the base interval before
// a dead backend is probed again and probe[1] caps its exponential
// backoff.
func WithTimeouts(dial, op time.Duration, probe ...time.Duration) Option {
	return Option{cluster: func(c *cluster.Config) {
		c.DialTimeout, c.OpTimeout = dial, op
		if len(probe) > 0 {
			c.ProbeEvery = probe[0]
		}
		if len(probe) > 1 {
			c.MaxProbe = probe[1]
		}
	}}
}

// WithWireCRC turns on end-to-end CRC-32C integrity on the wire path.
// Pass the volume's element size as blockSize (0 disables); serve each
// backend with blockserver.WithCRC of the same size. Every backend dial
// then negotiates the CRC feature: element reads and writes travel as
// checksummed frames verified at both ends, a read whose every
// surviving copy fails its checksum surfaces ErrScrubMismatch instead
// of corrupt bytes, and Scrub compares replicas by checksum instead of
// shipping both copies. Backends without the feature degrade
// gracefully to the plain opcodes.
func WithWireCRC(blockSize int64) Option {
	return Option{cluster: func(c *cluster.Config) { c.WireCRC = blockSize > 0 }}
}

// WithPipeline turns on the pipelined wire mode on a cluster volume:
// every backend dial negotiates the pipeline feature and the pool
// multiplexes many in-flight ops over a small number of tagged-frame
// connections with out-of-order completion and coalesced writev
// submission. window bounds the in-flight ops per connection (0 takes
// the default). Backends that predate the feature fall back to the
// synchronous path per connection; a server needs no option — it
// grants the feature whenever a client asks.
func WithPipeline(window int) Option {
	return Option{cluster: func(c *cluster.Config) {
		c.Pipeline, c.PipelineWindow = true, window
	}}
}

// WithHedging enables hedged reads on a cluster volume: a backend that
// exceeds the given fetch-latency percentile (adaptive, clamped to
// [minDelay, maxDelay]) is raced against the replica locations and the
// loser is cancelled. Zero values take the defaults (0.9, 1ms, 30ms).
func WithHedging(percentile float64, minDelay, maxDelay time.Duration) Option {
	return Option{cluster: func(c *cluster.Config) {
		c.HedgeEnabled, c.HedgePercentile = true, percentile
		c.HedgeMinDelay, c.HedgeMaxDelay = minDelay, maxDelay
	}}
}

// WithRebuildQoS enables the rebuild QoS controller on a cluster
// volume: RebuildDisk slices and ScrubOnline batches draw stripes from
// a shared token bucket whose rate adapts — fed back from the user-read
// fetch-latency p99 — to hold that p99 under slo, while never
// throttling below minStripesPerSec (the forward-progress floor; 0
// takes the default of 1 stripe/sec).
func WithRebuildQoS(slo time.Duration, minStripesPerSec float64) Option {
	return Option{cluster: func(c *cluster.Config) {
		c.RebuildQoSSLO, c.RebuildQoSMinRate = slo, minStripesPerSec
	}}
}

// WithMetrics registers the volume's sm_cluster_* series on reg (a
// sharded volume's sm_shard_* series too, each group's labeled). Use one
// registry per volume — a Registry panics on duplicate series.
func WithMetrics(reg *Registry) Option {
	return Option{cluster: func(c *cluster.Config) { c.Metrics = reg }, metrics: reg}
}

// WithTracer routes the volume's lifecycle events to t. The tracer runs
// inline and must be concurrency-safe.
func WithTracer(t Tracer) Option {
	return Option{cluster: func(c *cluster.Config) { c.Tracer = t }}
}

// NewClusterVolume builds a networked volume over a mirror-family
// architecture with one backend address per disk (see cluster.Open);
// a parity architecture's parity disk is one more backend.
func NewClusterVolume(arch *Mirror, backends map[DiskID]string, opts ...Option) (*ClusterVolume, error) {
	var copts []cluster.Option
	for _, o := range opts {
		if o.cluster != nil {
			copts = append(copts, o.cluster)
		}
	}
	return cluster.Open(arch, backends, copts...)
}
