package main

import (
	"time"

	"shiftedmirror/internal/workload"
)

// pattern is how a closed-loop client picks offsets.
type pattern int

const (
	uniform    pattern = iota // aligned uniform-random over the volume
	sequential                // full-volume passes, alternating write pass / read pass
	aimed                     // aligned uniform-random over the lost disk's elements only
)

// clientSpec is one closed-loop client: it issues its next op when the
// previous one completes.
type clientSpec struct {
	opBytes  int
	readFrac float64
	pattern  pattern
}

// openSpec is an open-loop arrival stream: ops are due on a seeded
// schedule at a fixed aggregate rate whatever the system's speed.
type openSpec struct {
	rate    float64 // ops per second
	workers int
	tenants []workload.TenantSpec
}

// spec is one workload: a fleet, a traffic shape, and how the run's
// seconds are split between the healthy window and the reconstruction
// windows on the shifted and on the traditional fleet.
type spec struct {
	name, why string
	file      bool
	readRate  float64
	stripes   int
	clients   []clientSpec
	open      *openSpec
	// replace rebuilds onto a fresh server (Fail → ReplaceBackend →
	// RebuildDisk); otherwise the same backend is scribbled and rebuilt
	// in place.
	replace bool
	// hold is how long the lost disk stays failed before its rebuild
	// starts, the volume serving degraded meanwhile. On the CPU-bound
	// fleets a rebuild holds the group's lock most of its few
	// milliseconds; with no hold, about half the reads addressing the
	// lost disk queue behind a slice and half do not, which puts the
	// median on the step between the two and makes it jump run to run.
	hold time.Duration
	// Shares of -seconds: warm-up, the healthy repetitions together, and
	// reconstruction cycles on the shifted and on the traditional fleet.
	// The three alternate in this many rounds (a divisor of healthyReps).
	warm, healthy, shifted, traditional float64
	rounds                              int
	// traceOps is the traced run's healthy-window op count at -seconds 10.
	traceOps int
}

const healthyReps = 20

// cpuBoundHold is the failed-before-rebuild time on the unthrottled
// fleets: a few times their ~10 ms rebuild.
const cpuBoundHold = 30 * time.Millisecond

func kib(n int) int { return n << 10 }

// openRate is the highest of the rates tried on the reference box
// (4000, 6000, 8000, 10000 ops/s) at which p99 stays under the 2 ms
// limit on the healthy volume and the backlog does not grow while a
// disk rebuilds: a fixed constant, never adapted at run time.
const openRate = 4000

var workloads = []*spec{
	{
		name:    "small_rand",
		why:     "2 closed-loop clients, 4 KiB uniform-random 70/30: per-op overhead dominates, bytes moved are negligible",
		stripes: 128,
		clients: []clientSpec{
			{opBytes: kib(4), readFrac: 0.7, pattern: uniform},
			{opBytes: kib(4), readFrac: 0.7, pattern: uniform},
		},
		hold: cpuBoundHold, rounds: 4,
		warm: 0.03, healthy: 0.47, shifted: 0.25, traditional: 0.25,
		traceOps: 4000,
	},
	{
		name:    "large_seq",
		why:     "1 closed-loop client, 1 MiB sequential write pass then read pass: byte moving dominates, planning is amortised over 64 elements",
		stripes: 128,
		clients: []clientSpec{
			{opBytes: kib(1024), pattern: sequential},
		},
		hold: cpuBoundHold, rounds: 4,
		warm: 0.03, healthy: 0.47, shifted: 0.25, traditional: 0.25,
		traceOps: 256,
	},
	{
		name: "file_mixed",
		why:  "same fleet on FileStore backends, 2 clients 64 KiB random 50/50: no Slice, so every frame takes the pooled-buffer path plus pread/pwrite",
		file: true, stripes: 128,
		clients: []clientSpec{
			{opBytes: kib(64), readFrac: 0.5, pattern: uniform},
			{opBytes: kib(64), readFrac: 0.5, pattern: uniform},
		},
		hold: cpuBoundHold, rounds: 4,
		warm: 0.03, healthy: 0.47, shifted: 0.25, traditional: 0.25,
		traceOps: 2000,
	},
	{
		name:    "open_mixed",
		why:     "open loop at a fixed 4000 ops/s, three tenants (4K reads, 16K 70/30, 128K 50/50), latency from each op's due time: queueing and tails a closed loop hides",
		stripes: 128,
		open: &openSpec{
			rate: openRate, workers: 2,
			tenants: []workload.TenantSpec{
				{Name: "small-read", Weight: 6, ReadFraction: 1, OpBytes: int64(kib(4)), MeanGap: 1.0 / openRate},
				{Name: "medium-mixed", Weight: 3, ReadFraction: 0.7, OpBytes: int64(kib(16)), MeanGap: 1.0 / openRate},
				{Name: "large-mixed", Weight: 1, ReadFraction: 0.5, OpBytes: int64(kib(128)), MeanGap: 1.0 / openRate},
			},
		},
		hold: cpuBoundHold, rounds: 4,
		warm: 0.03, healthy: 0.47, shifted: 0.25, traditional: 0.25,
		traceOps: 3000,
	},
	{
		name:     "degraded_live",
		why:      "the paper's headline: every backend read-throttled to 8 MB/s (disk, not CPU, limits), rebuild onto a fresh server under 2 readers, shifted vs traditional fleet",
		readRate: 8e6, stripes: 256, replace: true,
		clients: []clientSpec{
			{opBytes: kib(4), readFrac: 0.8, pattern: uniform},
			{opBytes: kib(4), readFrac: 1, pattern: aimed},
		},
		rounds: 2,
		warm:   0.03, healthy: 0.25, shifted: 0.4, traditional: 0.2,
		traceOps: 600,
	},
	{
		name:    "rebuild_fast",
		why:     "unthrottled MemStore fleet, 2 element-sized clients on the rebuilding disk, in-place rebuilds for two thirds of the run: CPU-bound rebuild path (gather planner, write-back merge, pool)",
		stripes: 128,
		clients: []clientSpec{
			{opBytes: kib(16), readFrac: 0.5, pattern: aimed},
			{opBytes: kib(16), readFrac: 0.5, pattern: aimed},
		},
		hold: cpuBoundHold, rounds: 4,
		warm: 0.03, healthy: 0.3, shifted: 0.35, traditional: 0.32,
		traceOps: 1000,
	},
}

func findSpec(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef is one named metric with its unit; BENCHMARK.json carries
// the same names and units plus direction and bound.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"user_MBps", "MB/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"allocs_per_op", "1/op"},
	{"degraded_read_p50_ms", "ms"},
	{"rebuild_MBps", "MB/s"},
	{"rebuild_speedup_x", "x"},
	{"peak_rss_MB", "MB"},
}

var ladderShapes = []struct {
	name  string
	bytes int
	write bool
}{
	{"r4k", kib(4), false},
	{"w4k", kib(4), true},
	{"r1m", kib(1024), false},
	{"w1m", kib(1024), true},
}

// perLayer is what a traced run reports, for every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, rung := range []string{"dev_mem", "dev_file"} {
		for _, sh := range ladderShapes {
			out = append(out, metricDef{rung + "." + sh.name + "_ns_op", "ns"})
		}
	}
	for _, rung := range []string{"blockserver", "cluster", "shard"} {
		for _, sh := range ladderShapes {
			out = append(out,
				metricDef{rung + "." + sh.name + "_ns_op", "ns"},
				metricDef{rung + "." + sh.name + "_allocs_op", "1/op"})
		}
	}
	return append(out,
		metricDef{"layout.copies_ns_op", "ns"},
		metricDef{"layout.copies_allocs_op", "1/op"},
		metricDef{"layout.rebuild_sources_ns", "ns"},

		metricDef{"shard.ops", "count"},
		metricDef{"shard.busy_s", "s"},
		metricDef{"shard.split_share", "share"},

		metricDef{"cluster.elements_per_op", "1/op"},
		metricDef{"cluster.backend_requests_per_op", "1/op"},
		metricDef{"cluster.write_batch_factor", "x"},
		metricDef{"cluster.degraded_reads", "count"},
		metricDef{"cluster.failovers", "count"},
		metricDef{"cluster.retries", "count"},
		metricDef{"cluster.dials", "count"},
		metricDef{"cluster.errors", "count"},
		metricDef{"cluster.rebuild_slice_p99_ms", "ms"},
		metricDef{"cluster.rebuild_sources", "count"},
		metricDef{"cluster.rebuild_sources_traditional", "count"},
		metricDef{"cluster.rebuild_source_imbalance", "count"},
		metricDef{"cluster.rebuild_oracle_mismatch", "count"},

		metricDef{"blockserver.frames", "count"},
		metricDef{"blockserver.server_busy_s", "s"},
		metricDef{"blockserver.bytes_in_per_user_byte", "x"},
		metricDef{"blockserver.bytes_out_per_user_byte", "x"},
		metricDef{"blockserver.zero_copy_share", "share"},
		metricDef{"blockserver.conns", "count"},
		metricDef{"blockserver.conns_torn", "count"},
		metricDef{"blockserver.queue_depth_mean", "x"},
		metricDef{"blockserver.queue_depth_max", "x"},

		metricDef{"dev.calls", "count"},
		metricDef{"dev.busy_s", "s"},
		metricDef{"dev.bytes_written_per_user_byte", "x"},
		metricDef{"dev.bytes_read_per_user_byte", "x"},

		metricDef{"workload.gen_s", "s"},
		metricDef{"workload.lag_p99_ms", "ms"},

		metricDef{"bench.trace_overhead_share", "share"},
		metricDef{"failed_share", "share"},

		// Tail latencies of a short untraced multi-client window: demoted
		// from the end-to-end list because they do not repeat within any
		// bound on the CPU-bound fleets.
		metricDef{"read_p99_ms", "ms"},
		metricDef{"write_p99_ms", "ms"},
		metricDef{"degraded_read_p99_ms", "ms"},
	)
}
