package blockserver

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/obs"
)

// traceSink records events for assertions.
type traceSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (t *traceSink) Trace(e obs.Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

func TestServerMetricsAndTracer(t *testing.T) {
	m := NewMetrics()
	sink := &traceSink{}
	srv := NewStoreServer(dev.NewMemStore(1<<16), WithMetrics(m), WithTracer(sink))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte{0xAB}, 1024)
	if _, err := c.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read back wrong bytes")
	}
	// Gather two 512-byte ranges in one OpReadV.
	vecs := []Vec{{Off: 0, Len: 512}, {Off: 512, Len: 512}}
	dst := [][]byte{make([]byte, 512), make([]byte, 512)}
	if err := c.ReadV(vecs, dst); err != nil {
		t.Fatal(err)
	}
	// Out-of-bounds read: answered as a remote error on a healthy conn.
	if _, err := c.ReadAt(make([]byte, 16), 1<<20); !IsRemote(err) {
		t.Fatalf("out-of-bounds read: got %v, want remote error", err)
	}
	// A management op.
	if _, err := c.Size(); err != nil {
		t.Fatal(err)
	}

	// The server folds a request into its metrics and its tracer after
	// answering it, so the last op can trail the client's return; Close
	// joins the connection's goroutine, after which it is in. (A close
	// between requests is not a torn connection.)
	c.Close()
	srv.Close()
	s := m.Snapshot()
	if s.Conns != 1 {
		t.Errorf("connections = %d, want 1", s.Conns)
	}
	if s.ConnsTorn != 0 {
		t.Errorf("connections torn = %d, want 0", s.ConnsTorn)
	}
	if s.BytesIn != 1024 {
		t.Errorf("bytes in = %d, want 1024", s.BytesIn)
	}
	if s.BytesOut != 2048 { // 1024 read + 2×512 gather; the failed read moved nothing
		t.Errorf("bytes out = %d, want 2048", s.BytesOut)
	}
	if op := s.Ops["write"]; op.Ops != 1 || op.Errors != 0 {
		t.Errorf("write ops = %+v, want 1 op, 0 errors", op)
	}
	if op := s.Ops["read"]; op.Ops != 2 || op.Errors != 1 {
		t.Errorf("read ops = %+v, want 2 ops, 1 error", op)
	}
	if op := s.Ops["readv"]; op.Ops != 1 || op.Lat.Count != 1 {
		t.Errorf("readv ops = %+v, want 1 op with 1 latency sample", op)
	}
	if op := s.Ops["size"]; op.Ops != 1 || op.Errors != 0 {
		t.Errorf("size ops = %+v, want 1 op, 0 errors", op)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 5 {
		t.Fatalf("tracer saw %d events, want 5", len(sink.events))
	}
	var readErrs int
	for _, e := range sink.events {
		if e.Op == "read" && e.Err != nil {
			readErrs++
		}
		if e.Op == "readv" && e.Bytes != 1024 {
			t.Errorf("readv event bytes = %d, want 1024", e.Bytes)
		}
	}
	if readErrs != 1 {
		t.Errorf("tracer saw %d failed reads, want 1", readErrs)
	}
}

// TestServerMetricsTornConnection covers the connection-teardown
// counter: a protocol violation (unknown opcode) kills the connection
// and must be visible in the metrics.
func TestServerMetricsTornConnection(t *testing.T) {
	m := NewMetrics()
	srv := NewStoreServer(dev.NewMemStore(1<<12), WithMetrics(m))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Raw garbage opcode straight onto the wire.
	if _, err := c.conn.Write([]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	// The server tears the connection down; the next op fails.
	if _, err := c.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("read on torn connection succeeded")
	}
	s := m.Snapshot()
	if s.ConnsTorn != 1 {
		t.Errorf("connections torn = %d, want 1", s.ConnsTorn)
	}
	if op := s.Ops["unknown"]; op.Ops != 1 {
		t.Errorf("unknown ops = %d, want 1", op.Ops)
	}
}

// TestMetricsExposition checks the registry wiring end to end: a served
// op shows up in the Prometheus text output with opcode labels.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	srv := NewStoreServer(dev.NewMemStore(1<<12), WithMetrics(m))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	// The server folds a request into its metrics after answering it, so
	// the counts can trail the client's return; Close joins the
	// connection's goroutine, after which they are in.
	c.Close()
	srv.Close()
	reg := obs.NewRegistry()
	m.Register(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sm_blockserver_ops_total{op="read"} 1`,
		`sm_blockserver_bytes_out_total 64`,
		`sm_blockserver_op_duration_seconds_count{op="read"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
