package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// The layout bake-off (-bakeoff): every catalog family measured on the
// wire under identical throttled backends, one lose-and-rebuild cycle
// each. Three deterministic axes per layout:
//
//   - rebuild-source fan-out: how many surviving backends serve the
//     gather, and how uniform their element counts are (max/min ratio);
//   - degraded-read element cost: what fraction of a full volume sweep
//     is served from a non-primary copy while the disk is down, and how
//     many backends carry that detoured load;
//   - write amplification: wire frames and bytes per logical byte for
//     the fill, counted on the servers.
//
// The geometry is pinned to n=4 with the stripe count a multiple of the
// declustered schedule period (7 at n=4), so the declustered family's
// headline guarantee is exact and hard-asserted: rebuild sources
// uniform within ±1 element across ALL 2n-1 surviving backends.
const bakeoffN = 4

// bakeoffFamilies are the measured layouts, baseline first.
var bakeoffFamilies = []string{"traditional", "shifted", "rotated", "declustered"}

// bakeoffRun is one layout family's measurement.
type bakeoffRun struct {
	Layout         string  `json:"layout"`
	RebuildSeconds float64 `json:"rebuild_seconds"`
	RebuildMBps    float64 `json:"rebuild_mbps"`
	// Rebuild-source fan-out, from the per-backend rebuild-read counters.
	RebuildReads    []backendReads `json:"rebuild_reads"`
	DistinctSources int            `json:"distinct_sources"`
	MinElements     int64          `json:"min_elements"`
	MaxElements     int64          `json:"max_elements"`
	TotalElements   int64          `json:"total_elements"`
	// SourceRatio is MaxElements/MinElements over the backends that
	// served at least one element — 1.0 is a perfectly uniform gather.
	SourceRatio float64 `json:"source_ratio"`
	// Degraded-read cost: one full-volume sweep with the disk failed.
	// DegradedElements/Fraction count elements the failover detoured to
	// a replica copy; DegradedSources counts the surviving backends the
	// sweep touched at all — under traditional every detour piles onto
	// the single twin (n-1 data disks + 1), under shifted the detours
	// spread over all n mirror disks (2n-1 total).
	DegradedElements int64   `json:"degraded_elements"`
	DegradedFraction float64 `json:"degraded_fraction"`
	DegradedSources  int     `json:"degraded_sources"`
	// Write amplification for the fill, server-side.
	WriteFramesPerStripe float64 `json:"write_frames_per_stripe"`
	WriteBytesPerLogical float64 `json:"write_bytes_per_logical_byte"`
}

// bakeoffReport is the whole phase.
type bakeoffReport struct {
	N            int          `json:"n"`
	Stripes      int          `json:"stripes"`
	ElementBytes int64        `json:"element_bytes"`
	RateMBps     float64      `json:"rate_mbps"`
	LostDisk     string       `json:"lost_disk"`
	Runs         []bakeoffRun `json:"runs"`
}

// measureBakeoff runs the full phase: identical backend fleets, one
// run per family.
func measureBakeoff(element int64, stripes int, rate float64) (bakeoffReport, error) {
	br := bakeoffReport{
		N: bakeoffN, Stripes: stripes, ElementBytes: element, RateMBps: rate,
		LostDisk: raid.DiskID{Role: raid.RoleData, Index: 0}.String(),
	}
	decl, err := layout.NewDeclustered(bakeoffN)
	if err != nil {
		return br, err
	}
	if stripes%decl.Period() != 0 {
		return br, fmt.Errorf("bakeoff stripes %d not a multiple of the declustered period %d", stripes, decl.Period())
	}
	for _, name := range bakeoffFamilies {
		run, err := measureBakeoffRun(name, element, stripes, rate)
		if err != nil {
			return br, fmt.Errorf("%s: %w", name, err)
		}
		br.Runs = append(br.Runs, run)
	}
	return br, nil
}

// measureBakeoffRun measures one family over its own fresh fleet.
func measureBakeoffRun(name string, element int64, stripes int, rate float64) (bakeoffRun, error) {
	run := bakeoffRun{Layout: name}
	arr, err := layout.New(name, bakeoffN)
	if err != nil {
		return run, err
	}
	arch := raid.NewMirror(arr)
	diskSize := int64(stripes) * int64(bakeoffN) * element

	var meters []*blockserver.Metrics
	f, backends, err := startFleet(arch, diskSize, func(raid.DiskID) backendSpec {
		m := blockserver.NewMetrics()
		meters = append(meters, m)
		return throttled(rate, blockserver.WithMetrics(m))
	})
	if err != nil {
		return run, err
	}
	defer f.close()

	v, err := cluster.New(arch, backends, cluster.Config{ElementSize: element, Stripes: stripes})
	if err != nil {
		return run, err
	}
	defer v.Close()

	// Fill, measuring the write path on the servers.
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(13)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		return run, err
	}
	var frames, bytesIn int64
	for _, m := range meters {
		s := m.Snapshot()
		frames += s.Ops["write"].Ops + s.Ops["writev"].Ops
		bytesIn += s.BytesIn
	}
	run.WriteFramesPerStripe = float64(frames) / float64(stripes)
	run.WriteBytesPerLogical = float64(bytesIn) / float64(len(payload))

	// Degraded sweep: fail the disk, read everything, attribute the
	// elements the failover detoured to replica copies.
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		return run, err
	}
	before := v.Stats()
	check := make([]byte, v.Size())
	if _, err := v.ReadAt(check, 0); err != nil {
		return run, fmt.Errorf("degraded sweep: %w", err)
	}
	if !bytes.Equal(check, payload) {
		return run, fmt.Errorf("degraded sweep diverges from written payload")
	}
	after := v.Stats()
	run.DegradedElements = after.DegradedReads - before.DegradedReads
	if read := after.ElementsRead - before.ElementsRead; read > 0 {
		run.DegradedFraction = float64(run.DegradedElements) / float64(read)
	}
	for i, b := range after.Backends {
		if b.Requests > before.Backends[i].Requests && b.Disk != lost.String() {
			run.DegradedSources++
		}
	}

	// Rebuild onto an unthrottled replacement, timing the throttled
	// gather — the bandwidth-bound side the paper studies.
	replacement, err := f.spawn(backendSpec{})
	if err != nil {
		return run, err
	}
	if err := v.ReplaceBackend(lost, replacement); err != nil {
		return run, err
	}
	v.ResetRebuildReads()
	start := time.Now()
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		return run, err
	}
	elapsed := time.Since(start)
	run.RebuildSeconds = elapsed.Seconds()
	run.RebuildMBps = float64(diskSize) / 1e6 / elapsed.Seconds()

	if _, err := v.ReadAt(check, 0); err != nil {
		return run, err
	}
	if !bytes.Equal(check, payload) {
		return run, fmt.Errorf("post-rebuild read diverges from written payload")
	}
	scrub, err := v.Scrub(context.Background())
	if errors.Is(err, cluster.ErrDegraded) {
		return run, fmt.Errorf("scrub skipped backends %v: %w", scrub.Skipped, err)
	}
	if err != nil {
		return run, err
	}

	run.MinElements = int64(bakeoffN * stripes)
	for _, b := range v.Stats().Backends {
		if b.RebuildReadElements == 0 {
			continue
		}
		run.RebuildReads = append(run.RebuildReads, backendReads{Disk: b.Disk, Elements: b.RebuildReadElements})
		run.DistinctSources++
		run.TotalElements += b.RebuildReadElements
		if b.RebuildReadElements < run.MinElements {
			run.MinElements = b.RebuildReadElements
		}
		if b.RebuildReadElements > run.MaxElements {
			run.MaxElements = b.RebuildReadElements
		}
	}
	if run.MinElements > 0 {
		run.SourceRatio = float64(run.MaxElements) / float64(run.MinElements)
	}
	return run, nil
}

// assertBakeoffProperty pins each family's structural claim where it
// cannot wobble. The declustered clause is the headline: rebuild
// sources uniform within ±1 element across ALL 2n-1 surviving
// backends, not just the n opposite-side disks a classic mirror can
// reach.
func assertBakeoffProperty(br bakeoffReport) error {
	n := br.N
	total := int64(n * br.Stripes)
	for _, r := range br.Runs {
		if r.TotalElements != total {
			return fmt.Errorf("%s: rebuild read %d elements, want %d", r.Layout, r.TotalElements, total)
		}
		switch r.Layout {
		case "traditional":
			if r.DistinctSources != 1 {
				return fmt.Errorf("traditional: %d rebuild sources, want 1 (%v)", r.DistinctSources, r.RebuildReads)
			}
		case "shifted":
			if r.DistinctSources != n || r.MaxElements-r.MinElements > 1 {
				return fmt.Errorf("shifted: sources %d (want %d), spread [%d,%d] (want ±1): %v",
					r.DistinctSources, n, r.MinElements, r.MaxElements, r.RebuildReads)
			}
		case "rotated":
			// The registry picks g=2 at n=4: fan-out n/g with equal load.
			if g := 2; r.DistinctSources != n/g || r.MaxElements != r.MinElements {
				return fmt.Errorf("rotated: sources %d (want %d), spread [%d,%d] (want equal): %v",
					r.DistinctSources, n/g, r.MinElements, r.MaxElements, r.RebuildReads)
			}
		case "declustered":
			if r.DistinctSources != 2*n-1 {
				return fmt.Errorf("declustered: %d rebuild sources, want all %d survivors (%v)",
					r.DistinctSources, 2*n-1, r.RebuildReads)
			}
			if r.MaxElements-r.MinElements > 1 {
				return fmt.Errorf("declustered: rebuild load not uniform across survivors: [%d,%d] (%v)",
					r.MinElements, r.MaxElements, r.RebuildReads)
			}
		}
	}
	return nil
}
