package blockserver

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"shiftedmirror/internal/dev"
)

// Loopback saturation benchmarks for the wire path. BenchmarkRawTCP is
// the ceiling: the same bytes over a bare socket with a one-byte
// request/ack round trip and no framing, store, or checksum. The
// BenchmarkWirePath variants run the real vectored protocol against a
// zero-copy MemStore server, with and without the CRC feature, plus a
// small-frame rung: one caller, one 4 KiB range, where the syscalls of
// an exchange rather than its bytes set the pace. The medians feed
// BENCH_wire.json ("gate" section) and cmd/benchdiff fails CI when the
// wire path drifts from this machine's baseline.
const (
	benchRanges   = 5
	benchRangeLen = 256 << 10
	benchTotal    = benchRanges * benchRangeLen
	benchSmall    = 4 << 10
)

// startRawPeer serves the baseline protocol on a loopback socket:
// 'r' → write benchTotal bytes; 'w' → read benchTotal bytes, ack 1;
// 'p' → write benchSmall bytes.
func startRawPeer(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, benchTotal)
		cmd := make([]byte, 1)
		for {
			if _, err := io.ReadFull(conn, cmd); err != nil {
				return
			}
			switch cmd[0] {
			case 'r':
				if _, err := conn.Write(buf); err != nil {
					return
				}
			case 'w':
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				if _, err := conn.Write(cmd); err != nil {
					return
				}
			case 'p':
				if _, err := conn.Write(buf[:benchSmall]); err != nil {
					return
				}
			}
		}
	}()
	return ln.Addr().String()
}

func BenchmarkRawTCP(b *testing.B) {
	addr := startRawPeer(b)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, benchTotal)
	rand.New(rand.NewSource(1)).Read(buf)
	cmd := make([]byte, 1)

	b.Run("read", func(b *testing.B) {
		b.SetBytes(benchTotal)
		for i := 0; i < b.N; i++ {
			cmd[0] = 'r'
			if _, err := conn.Write(cmd); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.SetBytes(benchTotal)
		for i := 0; i < b.N; i++ {
			cmd[0] = 'w'
			if _, err := conn.Write(cmd); err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Write(buf); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The small-frame ceiling: one round trip carrying 4 KiB, the shape
	// of BenchmarkWirePath's read4k and write4k legs.
	b.Run("pingpong4k", func(b *testing.B) {
		b.SetBytes(benchSmall)
		for i := 0; i < b.N; i++ {
			cmd[0] = 'p'
			if _, err := conn.Write(cmd); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf[:benchSmall]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWirePath(b *testing.B) {
	modes := []struct {
		name     string
		crc      bool
		features byte
	}{
		{"plain", false, 0},
		{"crc", true, FeatureCRC},
		// The pipelined leg is the A/B against plain: same bytes, same
		// single caller, but every op carries a 4-byte tag, crosses the
		// submit queue and writer goroutine, and demuxes by tag on the
		// way back. With one caller there is nothing to overlap, so this
		// measures pure framing+handoff overhead — the win shows up in
		// BenchmarkWireSmallOp where the window actually fills.
		{"pipelined", false, FeaturePipeline},
	}
	for _, m := range modes {
		mode := m.name
		crc := m.crc
		features := m.features
		mem := dev.NewMemStore(benchTotal)
		var opts []ServerOption
		if crc {
			opts = append(opts, WithCRC(benchRangeLen))
		}
		srv := NewStoreServer(mem, opts...)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		client, err := DialConfig(addr.String(), Config{Features: features})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		vecs := make([]Vec, benchRanges)
		data := make([][]byte, benchRanges)
		dst := make([][]byte, benchRanges)
		rng := rand.New(rand.NewSource(2))
		for i := range vecs {
			vecs[i] = Vec{Off: int64(i) * benchRangeLen, Len: benchRangeLen}
			data[i] = make([]byte, benchRangeLen)
			dst[i] = make([]byte, benchRangeLen)
			rng.Read(data[i])
		}
		if _, err := client.WriteVCtx(ctx, vecs, data); err != nil {
			b.Fatal(err)
		}

		// The small-frame rung runs first, right behind BenchmarkRawTCP's
		// pingpong4k it is gated against.
		if mode == "plain" {
			small := []Vec{{Len: benchSmall}}
			b.Run("read4k/"+mode, func(b *testing.B) {
				b.SetBytes(benchSmall)
				dst := [][]byte{dst[0][:benchSmall]}
				for i := 0; i < b.N; i++ {
					if err := client.ReadVCtx(ctx, small, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("write4k/"+mode, func(b *testing.B) {
				b.SetBytes(benchSmall)
				data := [][]byte{data[0][:benchSmall]}
				for i := 0; i < b.N; i++ {
					if _, err := client.WriteVCtx(ctx, small, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run("readv/"+mode, func(b *testing.B) {
			b.SetBytes(benchTotal)
			for i := 0; i < b.N; i++ {
				if err := client.ReadVCtx(ctx, vecs, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("writev/"+mode, func(b *testing.B) {
			b.SetBytes(benchTotal)
			for i := 0; i < b.N; i++ {
				if _, err := client.WriteVCtx(ctx, vecs, data); err != nil {
					b.Fatal(err)
				}
			}
		})
		client.Close()
		srv.Close()
	}
}

// BenchmarkWireSmallOp is the small-op saturation A/B at the cluster
// pool's shape: two connections (PoolSize=2), sixteen goroutines, one
// 512-byte single-vec read per op. The sync leg checks a connection
// out per op exactly like the pool's slot semaphore, so at most two
// requests are ever in flight and every op pays a full loopback round
// trip. The pipelined leg shares the same two connections: frames
// queue at the writer, coalesce into one writev, and complete out of
// order, so all sixteen callers overlap on two sockets. The ratio
// gate in BENCH_wire.json holds pipelined >= 2x sync within the same
// run — the structural property the pipelined wire mode exists for.
func BenchmarkWireSmallOp(b *testing.B) {
	const smallLen = 512
	const conns = 2
	const callers = 64
	mem := dev.NewMemStore(benchTotal)
	srv := NewStoreServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	b.Run("sync", func(b *testing.B) {
		slots := make(chan *Client, conns)
		for i := 0; i < conns; i++ {
			c, err := DialConfig(addr.String(), Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			slots <- c
		}
		var next atomic.Uint32
		b.SetBytes(smallLen)
		b.SetParallelism(callers)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			off := int64(next.Add(1)%(benchTotal/smallLen)) * smallLen
			vecs := []Vec{{Off: off, Len: smallLen}}
			dst := [][]byte{make([]byte, smallLen)}
			for pb.Next() {
				c := <-slots
				err := c.ReadVCtx(ctx, vecs, dst)
				slots <- c
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("pipelined", func(b *testing.B) {
		clients := make([]*Client, conns)
		for i := range clients {
			c, err := DialConfig(addr.String(), Config{Features: FeaturePipeline})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			clients[i] = c
		}
		var next atomic.Uint32
		b.SetBytes(smallLen)
		b.SetParallelism(callers)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			n := next.Add(1)
			c := clients[n%conns] // round-robin callers over the two pipes
			off := int64(n%(benchTotal/smallLen)) * smallLen
			vecs := []Vec{{Off: off, Len: smallLen}}
			dst := [][]byte{make([]byte, smallLen)}
			for pb.Next() {
				if err := c.ReadVCtx(ctx, vecs, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
