package blockserver

import (
	"context"
	"math/rand"
	"testing"
)

// The wire path's headline property: after the per-connection scratch
// warms up, the vectored data path performs zero heap allocations per
// operation at the client — with and without the CRC feature. Pinned
// with testing.AllocsPerRun (whose first call is the warm-up that grows
// the scratch) over context.Background() and over one long-lived
// cancellable context: a synchronous connection registers its cancel
// callback on that context's first exchange and keeps it, and a
// pipelined one waits on ctx.Done() in a select, so neither allocates
// per exchange.
func TestVectoredOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds its own allocations")
	}
	const blk = 1024
	for _, mode := range []struct {
		name     string
		crc      bool
		pipeline bool
	}{
		{"plain", false, false},
		{"crc", true, false},
		{"pipelined", false, true},
		{"pipelined-crc", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var crcBlock int64
			var features byte
			if mode.crc {
				crcBlock, features = blk, FeatureCRC
			}
			if mode.pipeline {
				features |= FeaturePipeline
			}
			addr, _ := startCRCServer(t, 64*blk, crcBlock, true)
			client, err := DialConfig(addr, Config{Features: features})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			vecs := make([]Vec, 8)
			data := make([][]byte, 8)
			dst := make([][]byte, 8)
			rng := rand.New(rand.NewSource(11))
			for i := range vecs {
				vecs[i] = Vec{Off: int64(i) * blk, Len: blk}
				data[i] = make([]byte, blk)
				dst[i] = make([]byte, blk)
				rng.Read(data[i])
			}
			long, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, c := range []struct {
				name string
				ctx  context.Context
			}{{"background", context.Background()}, {"cancellable", long}} {
				ctx := c.ctx
				if allocs := testing.AllocsPerRun(50, func() {
					if _, err := client.WriteVCtx(ctx, vecs, data); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("WriteVCtx (%s): %.1f allocs/op, want 0", c.name, allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if err := client.ReadVCtx(ctx, vecs, dst); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("ReadVCtx (%s): %.1f allocs/op, want 0", c.name, allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if _, err := client.WriteAtCtx(ctx, data[0], 0); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("WriteAtCtx (%s): %.1f allocs/op, want 0", c.name, allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if _, err := client.ReadAtCtx(ctx, dst[0], 0); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("ReadAtCtx (%s): %.1f allocs/op, want 0", c.name, allocs)
				}
			}
		})
	}
}
