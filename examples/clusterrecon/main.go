// Clusterrecon measures wall-clock reconstruction time of a networked
// shifted-mirror volume against the traditional arrangement, over real
// TCP sockets.
//
// One blockserver backend is started per disk, each with its read
// bandwidth capped to model a single disk's media rate. When data disk
// 0 is lost, the shifted arrangement has spread its n replicas-per-
// stripe over all n mirror backends (Property 1), so RebuildDisk fans
// its gather out across the whole cluster and finishes in roughly
// 1/n-th the time of the traditional arrangement, whose replicas all
// sit on the single twin backend and drain at one disk's bandwidth.
//
// Besides wall-clock timing (which wobbles on loaded machines), the
// run checks the paper's claim where it cannot wobble: the volume's
// per-backend rebuild-read counters. A shifted rebuild must source
// from exactly n distinct backends with per-backend element counts
// uniform within ±1; a violation is a hard failure. -json emits the
// whole report machine-readably so CI can assert on it.
//
// A mirror-with-parity leg (§V) follows on every run: data[0] and the
// mirror disk holding one of its replicas fail together, both are
// rebuilt, and the busiest backend's source reads per stripe must equal
// the recovery plan's access count exactly, for the shifted and the
// traditional arrangement; their ratio is printed beside the paper's
// (2n+1)/4, and the rebuilt disks must match their pre-failure images
// byte for byte.
//
// The run closes with a tail-latency experiment: data[0]'s store is
// wrapped with a deterministic 100ms stall (internal/faultinject) and
// the same seeded element reads are timed without and with hedged
// reads. The shifted placement makes the hedge load-neutral — every
// backup lands on a different backend (Properties 1/2) — and the
// report hard-asserts that hedging cuts p99 by at least 3x with at
// least one hedge win and zero data mismatches.
//
//	go run ./examples/clusterrecon            # defaults: n=5
//	go run ./examples/clusterrecon -quick     # small CI-sized run
//	go run ./examples/clusterrecon -quick -json > report.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// backendReads is one backend's share of a rebuild's source reads.
type backendReads struct {
	Disk     string `json:"disk"`
	Elements int64  `json:"elements"`
}

// runReport is one arrangement's full measurement.
type runReport struct {
	Arrangement    string  `json:"arrangement"`
	RebuildSeconds float64 `json:"rebuild_seconds"`
	RebuildMBps    float64 `json:"rebuild_mbps"`
	// RebuildReads lists every backend that served at least one element
	// as a rebuild source, with its element count — the wire-level
	// measurement of Properties 1/2.
	RebuildReads    []backendReads `json:"rebuild_reads"`
	DistinctSources int            `json:"distinct_sources"`
	MinElements     int64          `json:"min_elements"`
	MaxElements     int64          `json:"max_elements"`
	TotalElements   int64          `json:"total_elements"`
	Stats           cluster.Stats  `json:"stats"`
}

// tailReport is the hedged-read tail-latency experiment: seeded
// single-element reads against a shifted volume whose data[0] backend
// stalls deterministically, measured without and with hedging.
type tailReport struct {
	Reads         int     `json:"reads"`
	StallMs       float64 `json:"stall_ms"`
	Straggler     string  `json:"straggler"`
	UnhedgedP50Ms float64 `json:"unhedged_p50_ms"`
	UnhedgedP99Ms float64 `json:"unhedged_p99_ms"`
	HedgedP50Ms   float64 `json:"hedged_p50_ms"`
	HedgedP99Ms   float64 `json:"hedged_p99_ms"`
	// P99Speedup is unhedged p99 over hedged p99.
	P99Speedup    float64 `json:"p99_speedup"`
	HedgeAttempts int64   `json:"hedge_attempts"`
	HedgeWins     int64   `json:"hedge_wins"`
	HedgeLosses   int64   `json:"hedge_losses"`
	HedgeCancels  int64   `json:"hedge_cancels"`
	Mismatches    int     `json:"mismatches"`
}

// writeReport is the write-path experiment: wire frames per full-stripe
// write through the coalesced (OpWriteV) fan-out, plus the rebuild
// write-back's round-trip count.
type writeReport struct {
	StripeWrites int `json:"stripe_writes"`
	// Frames are server-side counts summed over every backend: a stripe
	// has 2n² element copies, and each backend's share of them travels
	// in one OpWriteV.
	BatchedFramesPerStripe float64 `json:"batched_frames_per_stripe"`
	BatchedMBps            float64 `json:"batched_mbps"`
	// RebuildWriteBackFrames is how many OpWriteV round trips the
	// replacement backend saw during a full rebuild; RebuildSlices is
	// the slice count, the expected frame count (one coalesced frame
	// per recovered slice).
	RebuildWriteBackFrames int64 `json:"rebuild_writeback_frames"`
	RebuildSlices          int64 `json:"rebuild_slices"`
}

// report is the whole run, one JSON document.
type report struct {
	N            int     `json:"n"`
	Stripes      int     `json:"stripes"`
	ElementBytes int64   `json:"element_bytes"`
	RateMBps     float64 `json:"rate_mbps"`
	// WireCRC marks a run over the checksummed wire path: every backend
	// keeps a per-element CRC32C sidecar and the volume verifies each
	// element end to end.
	WireCRC bool `json:"wire_crc"`
	// Pipeline marks a run over the pipelined wire mode: tagged frames
	// multiplexed over each pooled connection with out-of-order
	// completion and coalesced writev submission.
	Pipeline bool        `json:"pipeline"`
	LostDisk string      `json:"lost_disk"`
	Runs     []runReport `json:"runs"`
	// Speedup is traditional rebuild time over shifted rebuild time.
	Speedup float64 `json:"speedup"`
	// Tail is the hedged-read experiment under an injected straggler.
	Tail *tailReport `json:"tail,omitempty"`
	// Writes is the write-batching experiment.
	Writes *writeReport `json:"writes,omitempty"`
	// Parity is the mirror-with-parity double rebuild.
	Parity *parityReport `json:"parity,omitempty"`
	// Live is the availability-under-load experiment (-live): a
	// QoS-throttled rebuild racing a seeded multi-tenant workload.
	Live *liveReport `json:"live,omitempty"`
	// Bakeoff is the layout-catalog bake-off (-bakeoff): every
	// registered family's rebuild fan-out, degraded-read cost, and
	// write amplification over identical throttled backends.
	Bakeoff *bakeoffReport `json:"bakeoff,omitempty"`
}

func main() {
	n := flag.Int("n", 5, "data disks (2n backends total)")
	stripes := flag.Int("stripes", 32, "stripes per array")
	element := flag.Int64("element", 4096, "element size in bytes")
	rate := flag.Float64("rate", 2, "per-backend read bandwidth in MB/s (models disk media rate)")
	quick := flag.Bool("quick", false, "small run for CI smoke tests")
	layoutName := flag.String("layout", "shifted", "registered layout measured against the traditional baseline (see 'smtool layouts')")
	crc := flag.Bool("crc", false, "run the rebuild over the checksummed wire path (per-element CRC32C end to end)")
	pipeline := flag.Bool("pipeline", false, "run over the pipelined wire mode (tagged frames, out-of-order completion, coalesced writev)")
	live := flag.Bool("live", false, "also run the availability-under-load phase: QoS-throttled rebuild racing a seeded multi-tenant workload")
	bakeoff := flag.Bool("bakeoff", false, "also run the layout-catalog bake-off: every family's rebuild fan-out, degraded-read cost, and write amplification")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	flag.Parse()
	if *quick {
		*n, *stripes, *element = 4, 16, 2048
	}

	rep := report{
		N: *n, Stripes: *stripes, ElementBytes: *element, RateMBps: *rate,
		WireCRC: *crc, Pipeline: *pipeline,
		LostDisk: raid.DiskID{Role: raid.RoleData, Index: 0}.String(),
	}
	if !*jsonOut {
		fmt.Printf("cluster reconstruction: n=%d, %d stripes, %d B elements, backends capped at %.1f MB/s reads\n",
			*n, *stripes, *element, *rate)
		if *crc {
			fmt.Println("wire CRC: on (every element checksummed end to end)")
		}
		if *pipeline {
			fmt.Println("pipeline: on (tagged frames, out-of-order completion, coalesced writev)")
		}
		fmt.Printf("lost disk: %s (%.2f MB to recover over TCP)\n\n",
			rep.LostDisk, float64(*stripes)*float64(*n)*float64(*element)/1e6)
	}

	families := []string{"traditional"}
	if *layoutName != "traditional" {
		families = append(families, *layoutName)
	}
	for _, name := range families {
		rr, err := measure(name, *n, *element, *stripes, *rate, *crc, *pipeline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterrecon: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, rr)
	}
	rep.Speedup = rep.Runs[0].RebuildSeconds / rep.Runs[len(rep.Runs)-1].RebuildSeconds

	// The paper's Properties 1/2, measured on the wire. These counts are
	// deterministic — unlike the timing, a violation is always a bug.
	if err := assertWireProperty(rep); err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: wire property violated: %v\n", err)
		os.Exit(1)
	}

	prep, err := measureParityLeg(*n, *element, *stripes, *rate, *crc, *pipeline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: mirror with parity: %v\n", err)
		os.Exit(1)
	}
	rep.Parity = &prep
	if err := assertParityProperty(prep); err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: parity access count violated: %v\n", err)
		os.Exit(1)
	}

	tailReads := 200
	if *quick {
		tailReads = 120
	}
	tail, err := measureTail(*n, *element, *stripes, 100*time.Millisecond, tailReads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: tail latency: %v\n", err)
		os.Exit(1)
	}
	rep.Tail = &tail
	if err := assertTailProperty(tail); err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: hedging property violated: %v\n", err)
		os.Exit(1)
	}

	wr, err := measureWrites(*n, *element, *stripes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: write batching: %v\n", err)
		os.Exit(1)
	}
	rep.Writes = &wr
	if err := assertWriteProperty(*n, wr); err != nil {
		fmt.Fprintf(os.Stderr, "clusterrecon: write-batching property violated: %v\n", err)
		os.Exit(1)
	}

	if *live {
		lrep, err := measureLivePhase(*n, *element, *stripes, *rate, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterrecon: live traffic: %v\n", err)
			os.Exit(1)
		}
		rep.Live = &lrep
		if err := assertLiveProperty(lrep); err != nil {
			fmt.Fprintf(os.Stderr, "clusterrecon: availability property violated: %v\n", err)
			os.Exit(1)
		}
	}

	if *bakeoff {
		// The bake-off pins its own geometry: n=4 (the smallest n where
		// every catalog family constructs) with the stripe count a
		// multiple of the declustered schedule period.
		bakeStripes := 28
		if *quick {
			bakeStripes = 14
		}
		brep, err := measureBakeoff(*element, bakeStripes, *rate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterrecon: bakeoff: %v\n", err)
			os.Exit(1)
		}
		rep.Bakeoff = &brep
		if err := assertBakeoffProperty(brep); err != nil {
			fmt.Fprintf(os.Stderr, "clusterrecon: bakeoff property violated: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "clusterrecon:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%-14s %12s %12s %10s %12s\n", "arrangement", "rebuild", "MB/s", "sources", "max/min")
	for _, r := range rep.Runs {
		fmt.Printf("%-14s %12v %12.1f %10d %7d/%d\n",
			r.Arrangement, time.Duration(r.RebuildSeconds*float64(time.Second)).Round(time.Millisecond),
			r.RebuildMBps, r.DistinctSources, r.MaxElements, r.MinElements)
	}
	fmt.Printf("\nshifted network rebuild speedup over traditional: %.2fx (theoretical bound %dx)\n", rep.Speedup, *n)
	if rep.Speedup < 1 {
		// Timing on loaded CI machines can wobble; bytes were verified, so
		// warn instead of failing the smoke test.
		fmt.Println("warning: expected shifted to be faster; machine load may have skewed the timing")
	}
	fmt.Printf("\nmirror with parity, two disks lost together (rebuilt byte-identical):\n")
	fmt.Printf("%-14s %-22s %12s %14s %8s\n", "arrangement", "failed", "rebuild", "accesses/strp", "plan")
	for _, r := range prep.Runs {
		fmt.Printf("%-14s %-22s %12v %14.2f %8d\n", r.Arrangement, fmt.Sprint(r.Failed),
			time.Duration(r.RebuildSeconds*float64(time.Second)).Round(time.Millisecond), r.MaxPerStripe, r.PlanAccesses)
	}
	fmt.Printf("availability improvement (traditional/shifted accesses): %.2fx; the paper's (2n+1)/4 = %.2fx over all double failures\n",
		prep.Improvement, prep.PaperImprovement)
	fmt.Printf("\ntail latency under a %.0fms straggler on %s (%d seeded element reads):\n",
		tail.StallMs, tail.Straggler, tail.Reads)
	fmt.Printf("%-10s %10s %10s\n", "", "p50", "p99")
	fmt.Printf("%-10s %8.2fms %8.2fms\n", "unhedged", tail.UnhedgedP50Ms, tail.UnhedgedP99Ms)
	fmt.Printf("%-10s %8.2fms %8.2fms\n", "hedged", tail.HedgedP50Ms, tail.HedgedP99Ms)
	fmt.Printf("hedged p99 speedup: %.1fx (attempts %d, wins %d, losses %d, cancels %d)\n",
		tail.P99Speedup, tail.HedgeAttempts, tail.HedgeWins, tail.HedgeLosses, tail.HedgeCancels)
	fmt.Printf("\nwrite path over %d full-stripe writes (2n² = %d element copies each):\n",
		wr.StripeWrites, 2**n**n)
	fmt.Printf("%.1f frames/stripe, %.1f MB/s\n", wr.BatchedFramesPerStripe, wr.BatchedMBps)
	fmt.Printf("rebuild write-back: %d round trips for %d slices\n",
		wr.RebuildWriteBackFrames, wr.RebuildSlices)
	if rep.Live != nil {
		l := rep.Live
		fmt.Printf("\navailability under load (%d ops, %d tenants, SLO %.1fms, floor %.0f stripes/s):\n",
			l.Ops, l.Tenants, l.SLOMs, l.FloorStripesPerSec)
		fmt.Printf("%-14s %10s %10s %10s %12s %12s %10s\n",
			"arrangement", "idle p99", "live p99", "degraded", "inflation", "rebuild", "throttles")
		for _, r := range l.Runs {
			fmt.Printf("%-14s %8.2fms %8.2fms %8.2fms %11.2fx %9.1f/s %10d\n",
				r.Arrangement, r.IdleP99Ms, r.LiveP99Ms, r.DegradedP99Ms,
				r.DegradedInflationX, r.RebuildStripesPerS, r.QoS.Throttles)
		}
	}
	if rep.Bakeoff != nil {
		b := rep.Bakeoff
		fmt.Printf("\nlayout bake-off (n=%d, %d stripes, %d B elements):\n", b.N, b.Stripes, b.ElementBytes)
		fmt.Printf("%-14s %10s %8s %9s %10s %10s %12s\n",
			"layout", "rebuild", "sources", "max/min", "degraded", "deg-src", "frames/strp")
		for _, r := range b.Runs {
			fmt.Printf("%-14s %10v %8d %9.2f %9.1f%% %10d %12.1f\n",
				r.Layout, time.Duration(r.RebuildSeconds*float64(time.Second)).Round(time.Millisecond),
				r.DistinctSources, r.SourceRatio, 100*r.DegradedFraction, r.DegradedSources,
				r.WriteFramesPerStripe)
		}
	}
}

// assertWireProperty checks the deterministic half of the paper's
// claim against the layout's own prediction: every measured family's
// per-backend rebuild-read counters must exactly match
// layout.RebuildSources over the same geometry — "whatever the
// placement says", not a per-family special case. The named clauses
// then restate the paper's headline numbers on top of the exact check:
// a shifted rebuild sources from exactly n distinct backends with
// uniform (±1) load, while the traditional rebuild drains a single
// twin.
func assertWireProperty(rep report) error {
	total := int64(rep.N * rep.Stripes)
	disks := raid.NewMirror(layout.NewShifted(rep.N)).Disks()
	for _, r := range rep.Runs {
		if r.TotalElements != total {
			return fmt.Errorf("%s: rebuild read %d elements, want %d", r.Arrangement, r.TotalElements, total)
		}
		arr, err := layout.New(r.Arrangement, rep.N)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Arrangement, err)
		}
		predicted := layout.RebuildSources(raid.NewMirror(arr).Placement(), 0, int64(rep.Stripes))
		got := map[string]int64{}
		for _, b := range r.RebuildReads {
			got[b.Disk] = b.Elements
		}
		for i, want := range predicted {
			if got[disks[i].String()] != want {
				return fmt.Errorf("%s: backend %s served %d rebuild elements, placement predicts %d",
					r.Arrangement, disks[i], got[disks[i].String()], want)
			}
		}
		switch r.Arrangement {
		case "shifted":
			if r.DistinctSources != rep.N {
				return fmt.Errorf("shifted: rebuild sourced from %d backends, want %d (%v)",
					r.DistinctSources, rep.N, r.RebuildReads)
			}
			if r.MaxElements-r.MinElements > 1 {
				return fmt.Errorf("shifted: rebuild load not uniform: min %d max %d (%v)",
					r.MinElements, r.MaxElements, r.RebuildReads)
			}
		case "traditional":
			if r.DistinctSources != 1 {
				return fmt.Errorf("traditional: rebuild sourced from %d backends, want 1 (%v)",
					r.DistinctSources, r.RebuildReads)
			}
		}
	}
	return nil
}

// assertTailProperty checks the deterministic half of the hedging
// claim: under a stall far above the hedge delay, hedged reads must
// win at least once, never diverge from the written payload, and cut
// p99 by at least 3x.
func assertTailProperty(t tailReport) error {
	if t.Mismatches != 0 {
		return fmt.Errorf("%d reads diverged from the written payload", t.Mismatches)
	}
	if t.HedgeWins == 0 {
		return fmt.Errorf("no hedge wins under a %.0fms straggler (attempts %d)", t.StallMs, t.HedgeAttempts)
	}
	if t.P99Speedup < 3 {
		return fmt.Errorf("hedged p99 speedup %.2fx, want >= 3x (unhedged %.2fms, hedged %.2fms)",
			t.P99Speedup, t.UnhedgedP99Ms, t.HedgedP99Ms)
	}
	return nil
}

// measureTail times seeded single-element reads against a shifted
// volume whose data[0] backend stalls on every read, first without and
// then with hedging, over the same backends. Reads are byte-verified
// against the written payload; the stall is injected below the
// blockserver, so both volumes see the identical straggler.
func measureTail(n int, element int64, stripes int, stall time.Duration, reads int) (tailReport, error) {
	straggler := raid.DiskID{Role: raid.RoleData, Index: 0}
	tr := tailReport{Reads: reads, StallMs: float64(stall) / float64(time.Millisecond), Straggler: straggler.String()}
	arch := raid.NewMirror(layout.NewShifted(n))
	diskSize := int64(stripes) * int64(n) * element

	f, backends, err := startFleet(arch, diskSize, func(id raid.DiskID) backendSpec {
		if id != straggler {
			return backendSpec{}
		}
		// Stall every read; writes (the fill below) stay fast.
		return backendSpec{store: faultinject.Wrap(dev.NewMemStore(diskSize), faultinject.Config{
			Seed: 7, StallEvery: 1, StallFor: stall,
		})}
	})
	if err != nil {
		return tr, err
	}
	defer f.close()

	payload := make([]byte, diskSize*int64(n))
	rand.New(rand.NewSource(7)).Read(payload)

	runReads := func(v *cluster.Volume, fill bool) (p50, p99 float64, err error) {
		if fill {
			if _, err := v.WriteAt(payload, 0); err != nil {
				return 0, 0, err
			}
		}
		rng := rand.New(rand.NewSource(99))
		elements := int(int64(len(payload)) / element)
		buf := make([]byte, element)
		lats := make([]time.Duration, 0, reads)
		for i := 0; i < reads; i++ {
			off := int64(rng.Intn(elements)) * element
			start := time.Now()
			if _, err := v.ReadAt(buf, off); err != nil {
				return 0, 0, err
			}
			lats = append(lats, time.Since(start))
			if !bytes.Equal(buf, payload[off:off+element]) {
				tr.Mismatches++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return ms(lats[len(lats)/2]), ms(lats[len(lats)*99/100]), nil
	}

	unhedged, err := cluster.Open(arch, backends, cluster.WithGeometry(element, stripes))
	if err != nil {
		return tr, err
	}
	tr.UnhedgedP50Ms, tr.UnhedgedP99Ms, err = runReads(unhedged, true)
	unhedged.Close()
	if err != nil {
		return tr, err
	}

	hedged, err := cluster.New(arch, backends, cluster.Config{
		ElementSize: element, Stripes: stripes,
		HedgeEnabled: true, HedgePercentile: 0.9,
		HedgeMinDelay: time.Millisecond, HedgeMaxDelay: 10 * time.Millisecond,
	})
	if err != nil {
		return tr, err
	}
	defer hedged.Close()
	tr.HedgedP50Ms, tr.HedgedP99Ms, err = runReads(hedged, false)
	if err != nil {
		return tr, err
	}
	hs := hedged.Stats().Hedge
	tr.HedgeAttempts, tr.HedgeWins = hs.Attempts, hs.Wins
	tr.HedgeLosses, tr.HedgeCancels = hs.Losses, hs.Cancels
	if tr.HedgedP99Ms > 0 {
		tr.P99Speedup = tr.UnhedgedP99Ms / tr.HedgedP99Ms
	}
	return tr, nil
}

// measure runs one full lose-and-rebuild cycle over real sockets and
// byte-verifies the outcome. The architecture is built over the named
// registered layout, so any catalog family drives the identical wire
// path. With crc, every backend (including the replacement) keeps a
// per-element sidecar and the volume checksums the whole rebuild end to
// end.
func measure(name string, n int, element int64, stripes int, rate float64, crc, pipeline bool) (runReport, error) {
	rr := runReport{Arrangement: name}
	arr, err := layout.New(name, n)
	if err != nil {
		return rr, err
	}
	arch := raid.NewMirror(arr)
	diskSize := int64(stripes) * int64(n) * element

	// One throttled store server per disk: reads drain at the media rate.
	var crcOpts []blockserver.ServerOption
	if crc {
		crcOpts = append(crcOpts, blockserver.WithCRC(element))
	}
	f, backends, err := startFleet(arch, diskSize, func(raid.DiskID) backendSpec { return throttled(rate, crcOpts...) })
	if err != nil {
		return rr, err
	}
	defer f.close()

	v, err := cluster.New(arch, backends, cluster.Config{ElementSize: element, Stripes: stripes, WireCRC: crc, Pipeline: pipeline})
	if err != nil {
		return rr, err
	}
	defer v.Close()
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(7)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		return rr, err
	}

	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := v.Fail(lost); err != nil {
		return rr, err
	}
	// The replacement backend is unthrottled: a fresh spare's writes are
	// not the bottleneck the paper studies — surviving-disk reads are.
	replacement, err := f.spawn(backendSpec{opts: crcOpts})
	if err != nil {
		return rr, err
	}
	if err := v.ReplaceBackend(lost, replacement); err != nil {
		return rr, err
	}

	v.ResetRebuildReads() // measure this rebuild's source spread alone
	start := time.Now()
	if err := v.RebuildDisk(context.Background(), lost); err != nil {
		return rr, err
	}
	elapsed := time.Since(start)
	rr.RebuildSeconds = elapsed.Seconds()
	rr.RebuildMBps = float64(diskSize) / 1e6 / elapsed.Seconds()

	// Byte-verify: the rebuilt volume must read back the exact payload
	// and every replica pair must agree. Mismatches are a hard failure.
	check := make([]byte, v.Size())
	if _, err := v.ReadAt(check, 0); err != nil {
		return rr, err
	}
	if !bytes.Equal(check, payload) {
		return rr, fmt.Errorf("post-rebuild read diverges from written payload")
	}
	scrub, err := v.Scrub(context.Background())
	if errors.Is(err, cluster.ErrDegraded) {
		return rr, fmt.Errorf("scrub skipped backends %v: %w", scrub.Skipped, err)
	}
	if err != nil {
		return rr, err
	}
	if scrub.ElementsCompared == 0 {
		return rr, fmt.Errorf("scrub verified nothing: 0 elements compared")
	}
	if crc && scrub.ChecksumCompared != scrub.ElementsCompared {
		return rr, fmt.Errorf("CRC scrub fell back to byte comparison: %d of %d elements by checksum",
			scrub.ChecksumCompared, scrub.ElementsCompared)
	}

	rr.Stats = v.Stats()
	rr.MinElements = int64(n * stripes)
	for _, b := range rr.Stats.Backends {
		if b.RebuildReadElements == 0 {
			continue
		}
		rr.RebuildReads = append(rr.RebuildReads, backendReads{Disk: b.Disk, Elements: b.RebuildReadElements})
		rr.DistinctSources++
		rr.TotalElements += b.RebuildReadElements
		if b.RebuildReadElements < rr.MinElements {
			rr.MinElements = b.RebuildReadElements
		}
		if b.RebuildReadElements > rr.MaxElements {
			rr.MaxElements = b.RebuildReadElements
		}
	}
	return rr, nil
}

// assertWriteProperty checks the batching claim where it cannot wobble:
// a full-stripe write costs exactly one frame per replica backend (2n
// for 2n² element copies), and the rebuild write-back lands one
// coalesced frame per slice.
func assertWriteProperty(n int, w writeReport) error {
	if want := float64(2 * n); w.BatchedFramesPerStripe != want {
		return fmt.Errorf("full-stripe write cost %.1f frames, want %.0f", w.BatchedFramesPerStripe, want)
	}
	if w.RebuildWriteBackFrames != w.RebuildSlices {
		return fmt.Errorf("rebuild write-back used %d round trips for %d slices", w.RebuildWriteBackFrames, w.RebuildSlices)
	}
	return nil
}

// measureWrites times full-stripe writes against in-process backends,
// counting the wire frames on the servers, then rebuilds a disk and
// counts the write-back round trips landing on the replacement backend.
func measureWrites(n int, element int64, stripes int) (writeReport, error) {
	const rebuildBatch = 4
	wr := writeReport{StripeWrites: stripes}
	arch := raid.NewMirror(layout.NewShifted(n))
	diskSize := int64(stripes) * int64(n) * element
	stripeSize := int64(n) * int64(n) * element

	payload := make([]byte, stripeSize)
	rand.New(rand.NewSource(11)).Read(payload)
	// writeFrames counts the write frames the servers have handled. A
	// server folds a request into its metrics after answering it, so the
	// count can trail the client's return by a scheduling slice: wait for
	// the frames the volume issued before reading it.
	writeFrames := func(ms []*blockserver.Metrics, issued int64) int64 {
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			var frames int64
			for _, m := range ms {
				s := m.Snapshot()
				frames += s.Ops["write"].Ops + s.Ops["writev"].Ops
			}
			if frames >= issued || time.Now().After(deadline) {
				return frames
			}
		}
	}

	// Fresh backends: writing every stripe once both fills the volume
	// and is the measurement.
	metered := func(m *blockserver.Metrics) backendSpec {
		return backendSpec{opts: []blockserver.ServerOption{blockserver.WithMetrics(m)}}
	}
	var ms []*blockserver.Metrics
	f, backends, err := startFleet(arch, diskSize, func(raid.DiskID) backendSpec {
		ms = append(ms, blockserver.NewMetrics())
		return metered(ms[len(ms)-1])
	})
	if err != nil {
		return wr, err
	}
	defer f.close()
	batched, err := cluster.New(arch, backends, cluster.Config{
		ElementSize: element, Stripes: stripes, RebuildBatch: rebuildBatch,
	})
	if err != nil {
		return wr, err
	}
	defer batched.Close()
	start := time.Now()
	for s := 0; s < stripes; s++ {
		if _, err := batched.WriteAt(payload, int64(s)*stripeSize); err != nil {
			return wr, err
		}
	}
	elapsed := time.Since(start)
	filled := batched.Stats().WriteBatches
	wr.BatchedFramesPerStripe = float64(writeFrames(ms, filled)) / float64(stripes)
	wr.BatchedMBps = float64(stripeSize) * float64(stripes) / 1e6 / elapsed.Seconds()

	// Rebuild onto a fresh metered backend: only write-back lands there,
	// so its frame count is the round-trip measurement.
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := batched.Fail(lost); err != nil {
		return wr, err
	}
	rm := blockserver.NewMetrics()
	replacement, err := f.spawn(metered(rm))
	if err != nil {
		return wr, err
	}
	if err := batched.ReplaceBackend(lost, replacement); err != nil {
		return wr, err
	}
	if err := batched.RebuildDisk(context.Background(), lost); err != nil {
		return wr, err
	}
	wr.RebuildSlices = int64((stripes + rebuildBatch - 1) / rebuildBatch)
	wr.RebuildWriteBackFrames = writeFrames([]*blockserver.Metrics{rm}, batched.Stats().WriteBatches-filled)
	// Byte-verify the rebuilt volume before trusting the counts.
	check := make([]byte, batched.Size())
	if _, err := batched.ReadAt(check, 0); err != nil {
		return wr, err
	}
	for s := 0; s < stripes; s++ {
		if !bytes.Equal(check[int64(s)*stripeSize:int64(s+1)*stripeSize], payload) {
			return wr, fmt.Errorf("stripe %d diverges after the batched rebuild", s)
		}
	}
	return wr, nil
}
