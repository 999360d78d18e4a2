package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildTestRegistry assembles one registry exercising every metric kind,
// label rendering, multi-series families, and histogram exposition.
func buildTestRegistry() *Registry {
	reg := NewRegistry()
	ops := reg.Counter("sm_ops_total", "Operations served.", "op", "read")
	ops.Add(42)
	reg.Counter("sm_ops_total", "Operations served.", "op", "write").Add(7)
	reg.Counter("sm_bytes_total", "Payload bytes moved.").Add(1 << 20)
	g := reg.Gauge("sm_rebuild_watermark_stripes", "Rebuild progress.", "disk", `data[0]`)
	g.Set(12)
	h := reg.Histogram("sm_op_duration_seconds", "Op latency.",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}, "op", "read")
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second) // overflow
	return reg
}

func TestWriteTextGolden(t *testing.T) {
	reg := buildTestRegistry()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	reg := buildTestRegistry()
	var a, b bytes.Buffer
	reg.WriteText(&a)
	reg.WriteText(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "d")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	reg.Counter("dup_total", "d")
}

func TestRegistryTypeClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash_total", "d", "a", "1")
	defer func() {
		if recover() == nil {
			t.Fatal("type clash did not panic")
		}
	}()
	reg.Gauge("clash_total", "d", "a", "2")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "e", "path", `a"b\c`+"\n")
	var buf bytes.Buffer
	reg.WriteText(&buf)
	want := `esc_total{path="a\"b\\c\n"} 0`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing: got %q, want substring %q", buf.String(), want)
	}
}

// TestGaugeFuncReadsAtRender: a function-backed gauge has no stored
// value — each render shows what the function returns then — and the
// function runs with the registry unlocked, so it may use the registry.
func TestGaugeFuncReadsAtRender(t *testing.T) {
	reg := NewRegistry()
	level := int64(3)
	reg.RegisterGaugeFunc("sm_level", "Computed.", func() int64 {
		reg.Counter("sm_renders_total", "Registered from inside a render.", "at", strconv.FormatInt(level, 10))
		return level
	}, "tank", "a")
	reg.Gauge("sm_level", "Computed.", "tank", "b").Set(9)
	for _, want := range []int64{3, 7} {
		level = want
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		line := "sm_level{tank=\"a\"} " + strconv.FormatInt(want, 10) + "\nsm_level{tank=\"b\"} 9\n"
		if !strings.Contains(buf.String(), "# TYPE sm_level gauge\n"+line) {
			t.Fatalf("render at level %d:\n%s", want, buf.String())
		}
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	reg := buildTestRegistry()
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sm_ops_total{op="read"} 42`,
		`sm_op_duration_seconds_bucket{op="read",le="+Inf"} 4`,
		"# TYPE sm_rebuild_watermark_stripes gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("endpoint body missing %q", want)
		}
	}
}
