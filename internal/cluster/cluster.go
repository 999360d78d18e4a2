// Package cluster realizes the paper's availability claim at system
// scale: a Volume stripes the mirror-family element layout
// (internal/layout) over n remote backends — one blockserver per disk —
// and turns a failed disk's rebuild into the paper's single parallel
// access, now across machines.
//
// The data path is io.ReaderAt/io.WriterAt over stripes × n × n ×
// elementSize bytes, row-major elements. Reads scatter/gather element
// ranges into per-backend OpReadV batches over pooled connections;
// writes fan each element out to its data disk and every mirror replica
// concurrently. When a data disk's backend is failed or dead, reads fail
// over to the replica's backend — under the shifted arrangement that is
// always a *different* server (Property 1), so one lost backend never
// funnels its load onto a single twin the way the traditional
// arrangement does. Mirror-with-parity (§V) runs on the same core, its
// parity disk one more backend (see parity.go).
//
// The same Volume is also the in-process block device: NewLocal serves
// each disk from a store in this process instead of a blockserver, and
// every read, write, rebuild and scrub is planned exactly as over the
// wire (see backend.go).
//
// RebuildDisk is the paper's one-access reconstruction over TCP: the
// lost disk's n replica elements per stripe live on n distinct backends
// (shifted), so the fetch fans out across all of them in one pass,
// writing recovered elements to the replacement backend as each batch
// lands. Under the traditional arrangement the same rebuild drains one
// mirror backend sequentially — examples/clusterrecon measures the
// wall-clock difference over real sockets.
//
// Failure handling is two-layered: Fail/RebuildDisk manage *disk* state
// (content lost, must be reconstructed), while each backend's
// connection pool runs a marked-dead/probe-recovery state machine for
// *network* trouble (timeouts, refused connections) with bounded
// retry/backoff, surfaced through Health.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/obs"
)

// Errors: the error taxonomy the shiftedmirror facade re-exports.
var (
	// ErrBackendDead is returned (wrapped) when a backend is marked dead
	// and its probe window has not yet reopened.
	ErrBackendDead = errors.New("cluster: backend marked dead")
	// ErrDataLoss is returned when an element cannot be served from any
	// surviving location.
	ErrDataLoss = errors.New("cluster: data loss: element unrecoverable")
	// ErrDiskFailed is returned for operations that address a disk
	// currently marked failed.
	ErrDiskFailed = errors.New("cluster: disk is failed")
	// ErrScrubMismatch is returned by Scrub when a replica or a parity
	// element disagrees with the data it covers.
	ErrScrubMismatch = errors.New("cluster: scrub found inconsistent redundancy")
	// ErrDegraded is returned (wrapped, alongside a valid report) by
	// Scrub when at least one disk's content went unverified — the
	// volume is serving, but with reduced redundancy or coverage.
	ErrDegraded = errors.New("cluster: volume is degraded")
	// ErrRebuildInProgress is returned by RebuildDisk when the disk
	// already has a rebuild in flight.
	ErrRebuildInProgress = errors.New("cluster: rebuild already in progress")
)

// Config tunes a Volume. Zero fields take the defaults below. The
// shiftedmirror facade's options set these fields; each is documented
// here, once.
type Config struct {
	// ElementSize is the element (striping unit) size in bytes. An
	// element travels as one wire range, so New rejects a size above
	// blockserver.MaxIOSize. Default 4096.
	ElementSize int64
	// Stripes is the stripe count per array; New rejects a count whose
	// disk or volume size overflows. Default 8.
	Stripes int
	// PoolSize is the number of pooled connections per backend; one
	// blockserver client serializes, so this bounds per-backend
	// parallelism. Default 4.
	PoolSize int
	// DialTimeout and OpTimeout are passed to every blockserver client.
	// Defaults 2s and 15s. Note a rate-limited backend needs OpTimeout
	// above its worst-case transfer time.
	DialTimeout time.Duration
	OpTimeout   time.Duration
	// Retries is how many times a pool retries one operation on a fresh
	// connection after a transport failure. Default 2.
	Retries int
	// RetryBackoff is the base sleep between retries (doubled per
	// attempt). Default 50ms.
	RetryBackoff time.Duration
	// DeadAfter marks a backend dead after this many consecutive
	// transport failures. Default 3.
	DeadAfter int
	// ProbeEvery is the base interval before a dead backend is probed
	// again, doubling up to MaxProbe. Defaults 250ms and 5s.
	ProbeEvery time.Duration
	MaxProbe   time.Duration
	// RebuildBatch is how many stripes RebuildDisk recovers per slice:
	// one gather, one write-back, one watermark step — and the stripe
	// window a slice fences writes to the rebuilding disk out of while it
	// runs (reads, and writes elsewhere, are never held). Default 16.
	RebuildBatch int
	// WireCRC turns on end-to-end integrity: every backend dial
	// negotiates blockserver.FeatureCRC, element reads and writes travel
	// as CRC-carrying frames verified at both ends, a read whose every
	// surviving copy fails its checksum surfaces ErrScrubMismatch
	// instead of corrupt bytes, and Scrub compares replicas by checksum
	// (OpCrcV) instead of shipping both copies. Backends that predate or
	// did not enable the feature degrade gracefully to the plain opcodes
	// per connection. Every wire range is kept to exactly one element —
	// range merging is disabled, and a write that covers part of an
	// element reads, patches and rewrites the whole element instead of
	// shipping the part — so each range maps to one sidecar block on
	// the server.
	WireCRC bool
	// Pipeline turns on the pipelined wire mode: every backend dial
	// negotiates blockserver.FeaturePipeline and the pool multiplexes
	// many in-flight ops over a small number of tagged-frame connections
	// (out-of-order completion, coalesced writev submission) instead of
	// dedicating one connection per op. PoolSize then sets the number of
	// multiplexed connections and PipelineWindow the in-flight ops each
	// may carry. Backends that predate the feature fall back to the
	// synchronous path per connection.
	Pipeline bool
	// PipelineWindow bounds the in-flight operations per pipelined
	// connection. Default blockserver.DefaultPipeWindow.
	PipelineWindow int
	// Tracer, when set, receives one obs.Event per cluster lifecycle
	// operation (fail, auto_fail, replace_backend, rebuild_slice,
	// rebuild, scrub). It runs inline and must be concurrency-safe.
	Tracer obs.Tracer
	// Metrics, when set, gets the volume's series registered at New
	// (equivalent to calling RegisterMetrics yourself). One volume per
	// registry: obs.Registry panics on duplicate series.
	Metrics *obs.Registry

	// HedgeEnabled turns on hedged user reads: when a backend's batch
	// exceeds an adaptive delay, the same spans are raced against their
	// replica locations and the loser is cancelled. Only user reads
	// hedge — rebuild gathers keep their deterministic source
	// attribution.
	HedgeEnabled bool
	// HedgePercentile is the fetch-latency quantile (over successful
	// per-backend vectored reads) that arms the hedge timer. Default 0.9.
	HedgePercentile float64
	// HedgeMinDelay and HedgeMaxDelay clamp the adaptive delay, so a
	// straggler polluting the histogram cannot push the trigger out of
	// reach and an all-fast history cannot hedge pointlessly early.
	// Defaults 1ms and 30ms. Until HedgeMinSamples successful fetches
	// (default 32) have been observed, the delay is HedgeMaxDelay.
	HedgeMinDelay   time.Duration
	HedgeMaxDelay   time.Duration
	HedgeMinSamples int

	// RebuildQoSSLO, when positive, enables the rebuild QoS controller:
	// RebuildDisk slices and ScrubOnline batches draw stripes from a
	// shared token bucket whose rate adapts to hold the user-read
	// fetch-latency p99 (the sm_cluster_fetch_duration_seconds
	// histogram) under this SLO. Zero disables QoS — rebuild runs flat
	// out, the previous behaviour.
	RebuildQoSSLO time.Duration
	// RebuildQoSMinRate is the floor rate in stripes/second the
	// controller never throttles below, the rebuild's forward-progress
	// guarantee even under sustained SLO pressure. Default 1.
	RebuildQoSMinRate float64
	// RebuildQoSMaxRate caps the rate while the SLO has headroom.
	// Default 1e6 stripes/second — effectively unthrottled.
	RebuildQoSMaxRate float64
	// RebuildQoSInterval is how often the controller re-reads the fetch
	// histogram and adjusts the rate. Default 100ms.
	RebuildQoSInterval time.Duration
}

func (c Config) withDefaults() Config {
	orDefault(&c.ElementSize, 4096)
	orDefault(&c.Stripes, 8)
	orDefault(&c.PoolSize, 4)
	orDefault(&c.DialTimeout, 2*time.Second)
	orDefault(&c.OpTimeout, 15*time.Second)
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	orDefault(&c.RetryBackoff, 50*time.Millisecond)
	orDefault(&c.DeadAfter, 3)
	orDefault(&c.ProbeEvery, 250*time.Millisecond)
	orDefault(&c.MaxProbe, 5*time.Second)
	orDefault(&c.PipelineWindow, blockserver.DefaultPipeWindow)
	orDefault(&c.RebuildBatch, 16)
	if c.HedgePercentile <= 0 || c.HedgePercentile >= 1 {
		c.HedgePercentile = 0.9
	}
	orDefault(&c.HedgeMinDelay, time.Millisecond)
	if c.HedgeMaxDelay <= c.HedgeMinDelay {
		c.HedgeMaxDelay = max(30*time.Millisecond, c.HedgeMinDelay)
	}
	orDefault(&c.HedgeMinSamples, 32)
	orDefault(&c.RebuildQoSMinRate, 1)
	orDefault(&c.RebuildQoSMaxRate, 1e6)
	c.RebuildQoSMaxRate = max(c.RebuildQoSMaxRate, c.RebuildQoSMinRate)
	orDefault(&c.RebuildQoSInterval, 100*time.Millisecond)
	return c
}

// orDefault sets a field that is zero or negative to its default.
func orDefault[T int | int64 | float64 | time.Duration](field *T, def T) {
	if *field <= 0 {
		*field = def
	}
}

// checkGeometry rejects, by field name, a geometry over n-disk arrays
// that the volume could not address: an element no wire range can carry
// (it would surface at the first I/O as a backend that serves nothing),
// a disk size — Stripes × n × ElementSize, which sizes buffers — beyond
// int, or a volume size beyond int64. c has its defaults applied.
func (c Config) checkGeometry(n int) error {
	if c.ElementSize > blockserver.MaxIOSize {
		return fmt.Errorf("cluster: Config.ElementSize %d exceeds the %d bytes one wire range may carry",
			c.ElementSize, blockserver.MaxIOSize)
	}
	if int64(c.Stripes) > math.MaxInt/int64(n)/c.ElementSize {
		return fmt.Errorf("cluster: Config.Stripes %d × n %d × Config.ElementSize %d overflows the disk size (int)",
			c.Stripes, n, c.ElementSize)
	}
	if int64(c.Stripes) > math.MaxInt64/int64(n)/int64(n)/c.ElementSize {
		return fmt.Errorf("cluster: Config.Stripes %d × n² %d × Config.ElementSize %d overflows the volume size (int64)",
			c.Stripes, n*n, c.ElementSize)
	}
	return nil
}
