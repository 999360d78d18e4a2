package shard

import (
	"bytes"
	"context"
	"testing"
	"time"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
	"shiftedmirror/internal/workload"
)

// TestShardedReplayDuringQoSRebuild drives the full online-rebuild
// stack through the sharded surface: every child volume carries a QoS
// controller, one group loses a disk and rebuilds at a pinned floor
// rate while a seeded multi-tenant workload replays closed-loop against
// the ShardedVolume, and the content must byte-verify afterwards. The
// routed data path implements workload.Target, so the same generator
// the cluster live phase uses needs no adapter here.
func TestShardedReplayDuringQoSRebuild(t *testing.T) {
	const (
		n       = 3
		element = int64(64)
		stripes = 4
	)
	children := make([]*cluster.Volume, 2)
	backends := make([]*groupBackends, 2)
	for i := range children {
		arch := raid.NewMirror(layout.NewShifted(n))
		// Two replay workers may write one range at once.
		backends[i] = startOrderedGroupBackends(t, arch, element, stripes)
		cfg := fastClusterConfig(element, stripes)
		cfg.RebuildQoSSLO = 5 * time.Millisecond
		cfg.RebuildQoSMinRate = 16 // pinned: 4 stripes ≈ 250ms of tokens
		cfg.RebuildQoSMaxRate = 16
		cfg.RebuildQoSInterval = 10 * time.Millisecond
		v, err := cluster.New(arch, backends[i].addrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = v
	}
	s, err := New(children, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	payload := shardPayload(t, s, 51)

	stream := workload.Ops(7, 200, s.Size(), []workload.TenantSpec{
		{Name: "reader", Weight: 3, ReadFraction: 1, OpBytes: 128},
		{Name: "mixed", Weight: 1, ReadFraction: 0.5, OpBytes: 128},
	})
	replayCfg := workload.ReplayConfig{
		// Writes rewrite the original bytes so the post-rebuild verify
		// still covers the whole logical space.
		Fill: func(op workload.Op, buf []byte) {
			copy(buf, payload[op.Off:op.Off+int64(len(buf))])
		},
		Concurrency: 2,
	}

	const gid = 1
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	if err := s.Fail(gid, lost); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceBackend(gid, lost, backends[gid].replace(lost)); err != nil {
		t.Fatal(err)
	}
	rebuildDone := make(chan error, 1)
	go func() { rebuildDone <- s.RebuildDisk(context.Background(), gid, lost) }()

	// Replay against the degraded sharded volume until the rebuild
	// completes, so the routed path serves traffic through every phase.
	var res workload.Result
	for {
		res, err = workload.ReplayClosed(context.Background(), s, stream, replayCfg)
		if err != nil {
			t.Fatalf("replay during sharded QoS rebuild: %v", err)
		}
		select {
		case err := <-rebuildDone:
			if err != nil {
				t.Fatalf("rebuild under replay: %v", err)
			}
		default:
			continue
		}
		break
	}

	if got := len(res.Tenants); got != 2 {
		t.Fatalf("result tenants = %d, want 2", got)
	}
	for _, tr := range res.Tenants {
		if tr.Reads == 0 {
			t.Fatalf("tenant %s recorded no reads", tr.Name)
		}
		if tr.ReadP(0.99) <= 0 {
			t.Fatalf("tenant %s read p99 = %v", tr.Name, tr.ReadP(0.99))
		}
	}
	check := make([]byte, s.Size())
	if _, err := s.ReadAt(check, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		t.Fatal("sharded content diverges after rebuild under live replay")
	}
	child, ok := s.GroupVolume(gid)
	if !ok {
		t.Fatal("group volume missing")
	}
	qs := child.Stats().QoS
	if !qs.Enabled {
		t.Fatal("rebuilt child does not report its QoS controller")
	}
	if qs.RateStripesPerSec != 16 {
		t.Fatalf("pinned child rate = %v, want 16", qs.RateStripesPerSec)
	}
}
