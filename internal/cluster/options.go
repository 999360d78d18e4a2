package cluster

import (
	"time"

	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// Option mutates a Config. Options are the preferred way to tune a
// Volume (see Open); the Config struct fields remain for compatibility
// and for tests that need full control.
type Option func(*Config)

// WithGeometry sets the element size in bytes and the stripe count.
func WithGeometry(elementSize int64, stripes int) Option {
	return func(c *Config) {
		c.ElementSize = elementSize
		c.Stripes = stripes
	}
}

// WithTimeouts sets the per-connection dial and per-operation timeouts.
// The optional probe durations tune the dead-backend recovery cadence,
// which used to be reachable only through Config: probe[0] is the base
// interval before a dead backend is probed again (Config.ProbeEvery)
// and probe[1] caps its exponential backoff (Config.MaxProbe).
func WithTimeouts(dial, op time.Duration, probe ...time.Duration) Option {
	return func(c *Config) {
		c.DialTimeout = dial
		c.OpTimeout = op
		if len(probe) > 0 {
			c.ProbeEvery = probe[0]
		}
		if len(probe) > 1 {
			c.MaxProbe = probe[1]
		}
	}
}

// WithWireCRC toggles end-to-end CRC-32C integrity on the wire path:
// per-element checksums carried in the vector opcodes, verified at the
// client on read and the server on write, and a Scrub fast path that
// compares replicas by checksum instead of shipping both copies. See
// Config.WireCRC.
func WithWireCRC(enabled bool) Option {
	return func(c *Config) { c.WireCRC = enabled }
}

// WithPipeline toggles the pipelined wire mode: every backend dial
// negotiates blockserver.FeaturePipeline and the pool multiplexes many
// in-flight ops over a small number of tagged-frame connections
// (out-of-order completion, coalesced writev submission). window bounds
// the in-flight ops per connection; pass 0 for the default
// (blockserver.DefaultPipeWindow). Backends that predate the feature
// fall back to the synchronous path per connection. See Config.Pipeline.
func WithPipeline(window int) Option {
	return func(c *Config) {
		c.Pipeline = true
		c.PipelineWindow = window
	}
}

// WithHedging enables hedged user reads: a backend that exceeds the
// given fetch-latency percentile (clamped to [minDelay, maxDelay]) is
// raced against the spans' replica locations and the loser is
// cancelled. Pass zero values to take the defaults (percentile 0.9,
// 1ms, 30ms).
func WithHedging(percentile float64, minDelay, maxDelay time.Duration) Option {
	return func(c *Config) {
		c.HedgeEnabled = true
		c.HedgePercentile = percentile
		c.HedgeMinDelay = minDelay
		c.HedgeMaxDelay = maxDelay
	}
}

// WithTracer routes cluster lifecycle events (fail, auto_fail,
// replace_backend, rebuild_slice, rebuild, scrub) to t.
func WithTracer(t obs.Tracer) Option {
	return func(c *Config) { c.Tracer = t }
}

// WithMetrics registers the volume's sm_cluster_* series on reg at New.
// One volume per registry: obs.Registry panics on duplicate series.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithPool sets the pooled-connection count per backend and the
// transport retry budget (retries on fresh connections, with backoff
// doubling from base).
func WithPool(size, retries int, backoff time.Duration) Option {
	return func(c *Config) {
		c.PoolSize = size
		c.Retries = retries
		c.RetryBackoff = backoff
	}
}

// WithRebuildQoS enables the rebuild QoS controller: RebuildDisk slices
// and ScrubOnline batches draw stripes from a shared token bucket whose
// rate adapts — fed back from the sm_cluster_fetch_duration_seconds
// histogram — to hold the user-read p99 under slo, while never
// throttling below minStripesPerSec (the forward-progress floor; pass 0
// for the default of 1). See Config.RebuildQoS* for the remaining
// knobs.
func WithRebuildQoS(slo time.Duration, minStripesPerSec float64) Option {
	return func(c *Config) {
		c.RebuildQoSSLO = slo
		c.RebuildQoSMinRate = minStripesPerSec
	}
}

// Open builds a Volume over the architecture and backend address map
// using functional options — the option-first counterpart of New.
func Open(arch *raid.Mirror, backends map[raid.DiskID]string, opts ...Option) (*Volume, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return New(arch, backends, cfg)
}
