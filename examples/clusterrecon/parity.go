package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"shiftedmirror/internal/analysis"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// The mirror-with-parity leg (the paper's §V) on the wire: a data disk
// and the mirror disk holding one of its replicas fail together — the
// case where an element has no copy left and comes back from its row's
// parity — and both are rebuilt onto fresh backends. The paper's access
// count is the busiest disk's reads per stripe (raid's AvailAccesses);
// here it is read off the volume's per-backend rebuild-source counters
// and must equal the plan exactly.

// parityRun is one arrangement's double rebuild.
type parityRun struct {
	Arrangement    string         `json:"arrangement"`
	Failed         []string       `json:"failed"`
	RebuildSeconds float64        `json:"rebuild_seconds"`
	RebuildReads   []backendReads `json:"rebuild_reads"`
	// MaxPerStripe is the busiest backend's source reads per stripe over
	// both rebuilds; PlanAccesses is RecoveryPlan(failed).AvailAccesses().
	MaxPerStripe float64 `json:"max_per_stripe"`
	PlanAccesses int     `json:"plan_accesses"`
	// ParityReads counts the elements served as the XOR of their row.
	ParityReads int64 `json:"parity_reads"`
}

// parityReport is the leg over both arrangements.
type parityReport struct {
	Runs []parityRun `json:"runs"`
	// Improvement is the traditional run's accesses per stripe over the
	// shifted run's; PaperImprovement is the paper's (2n+1)/4, the
	// average over every double-failure case.
	Improvement      float64 `json:"improvement"`
	PaperImprovement float64 `json:"paper_improvement"`
}

// measureParityLeg runs the double rebuild over the traditional and the
// shifted arrangement.
func measureParityLeg(n int, element int64, stripes int, rate float64, crc, pipeline bool) (parityReport, error) {
	rep := parityReport{PaperImprovement: analysis.MirrorParityImprovement(n)}
	for _, name := range []string{"traditional", "shifted"} {
		run, err := measureParity(name, n, element, stripes, rate, crc, pipeline)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", name, err)
		}
		rep.Runs = append(rep.Runs, run)
	}
	rep.Improvement = rep.Runs[0].MaxPerStripe / rep.Runs[1].MaxPerStripe
	return rep, nil
}

// assertParityProperty: on every arrangement the busiest backend served
// exactly the plan's accesses per stripe.
func assertParityProperty(rep parityReport) error {
	for _, r := range rep.Runs {
		if r.MaxPerStripe != float64(r.PlanAccesses) {
			return fmt.Errorf("%s: busiest backend served %.2f rebuild reads per stripe, the recovery plan needs %d (%v)",
				r.Arrangement, r.MaxPerStripe, r.PlanAccesses, r.RebuildReads)
		}
		if r.ParityReads == 0 {
			return fmt.Errorf("%s: no element was rebuilt from parity", r.Arrangement)
		}
	}
	return nil
}

// measureParity fails data[0] and the holder of its row-0 replica on a
// mirror-with-parity volume over the named arrangement, rebuilds both
// onto fresh backends, and checks the rebuilt disks byte for byte
// against their images from before the failure.
func measureParity(name string, n int, element int64, stripes int, rate float64, crc, pipeline bool) (parityRun, error) {
	run := parityRun{Arrangement: name}
	arr, err := layout.New(name, n)
	if err != nil {
		return run, err
	}
	arch := raid.NewMirrorWithParity(arr)
	a := arr.MirrorOf(layout.Addr{Disk: 0, Row: 0})
	failed := []raid.DiskID{{Role: raid.RoleData, Index: 0}, {Role: raid.RoleMirror, Index: a.Disk}}
	plan, err := arch.RecoveryPlan(failed)
	if err != nil {
		return run, err
	}
	run.PlanAccesses = plan.AvailAccesses()
	diskSize := int64(stripes) * int64(n) * element

	var crcOpts []blockserver.ServerOption
	if crc {
		crcOpts = append(crcOpts, blockserver.WithCRC(element))
	}
	f, backends, err := startFleet(arch, diskSize, func(raid.DiskID) backendSpec { return throttled(rate, crcOpts...) })
	if err != nil {
		return run, err
	}
	defer f.close()
	v, err := cluster.New(arch, backends, cluster.Config{ElementSize: element, Stripes: stripes, WireCRC: crc, Pipeline: pipeline})
	if err != nil {
		return run, err
	}
	defer v.Close()
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(11)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		return run, err
	}

	// The failed disks' images as written, then fresh backends for them.
	before := map[raid.DiskID][]byte{}
	for _, id := range failed {
		run.Failed = append(run.Failed, id.String())
		if before[id], err = readImage(backends[id], diskSize); err != nil {
			return run, err
		}
		if err := v.Fail(id); err != nil {
			return run, err
		}
		if backends[id], err = f.spawn(backendSpec{opts: crcOpts}); err != nil {
			return run, err
		}
		if err := v.ReplaceBackend(id, backends[id]); err != nil {
			return run, err
		}
	}

	v.ResetRebuildReads()
	start := time.Now()
	for _, id := range failed {
		if err := v.RebuildDisk(context.Background(), id); err != nil {
			return run, fmt.Errorf("rebuild %v: %w", id, err)
		}
	}
	run.RebuildSeconds = time.Since(start).Seconds()

	for _, id := range failed {
		img, err := readImage(backends[id], diskSize)
		if err != nil {
			return run, err
		}
		if !bytes.Equal(img, before[id]) {
			return run, fmt.Errorf("rebuilt %v differs from its image before the failure", id)
		}
	}
	check := make([]byte, v.Size())
	if _, err := v.ReadAt(check, 0); err != nil {
		return run, err
	}
	if !bytes.Equal(check, payload) {
		return run, fmt.Errorf("post-rebuild read diverges from written payload")
	}
	if _, err := v.Scrub(context.Background()); err != nil {
		return run, err
	}

	var busiest int64
	for _, b := range v.Stats().Backends {
		if b.RebuildReadElements > 0 {
			run.RebuildReads = append(run.RebuildReads, backendReads{Disk: b.Disk, Elements: b.RebuildReadElements})
			busiest = max(busiest, b.RebuildReadElements)
		}
	}
	run.MaxPerStripe = float64(busiest) / float64(stripes)
	run.ParityReads = v.Health().ParityReads
	return run, nil
}

// readImage reads a whole disk off its backend.
func readImage(addr string, size int64) ([]byte, error) {
	c, err := blockserver.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	img := make([]byte, size)
	_, err = c.ReadAt(img, 0)
	return img, err
}
