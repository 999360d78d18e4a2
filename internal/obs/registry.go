package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry names metrics and renders them in the Prometheus text
// exposition format. Registration happens at setup time (it locks and
// allocates); the registered Counter/Gauge/Histogram values stay owned
// by their components, so the data path never touches the registry. A
// value that is a function of other state (a rollup, a cursor) is
// registered as that function (RegisterGaugeFunc) and computed when the
// registry is read, so it cannot go stale.
//
// Families appear in registration order; series within a family are
// sorted by label string, so the output is deterministic and
// golden-file testable.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	series          []series
}

type series struct {
	labels string // pre-rendered `k="v",k2="v2"` or ""
	c      *Counter
	g      *Gauge
	gf     func() int64
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// renderLabels turns k,v pairs into a canonical label string. Pairs must
// come in even counts; values are escaped per the exposition format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	return b.String()
}

func (r *Registry) add(name, help, typ, labels string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	for _, existing := range f.series {
		if existing.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
}

// Counter creates and registers a new counter. labels are key,value
// pairs; series under one name must share the help text of the first
// registration.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c, labels...)
	return c
}

// RegisterCounter registers an existing counter (owned by a component)
// under the given name and labels.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	r.add(name, help, "counter", renderLabels(labels), series{c: c})
}

// Gauge creates and registers a new gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, g, labels...)
	return g
}

// RegisterGauge registers an existing gauge.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...string) {
	r.add(name, help, "gauge", renderLabels(labels), series{g: g})
}

// RegisterGaugeFunc registers a gauge whose value is fn's result at the
// moment the registry is rendered. fn runs on the rendering goroutine
// with no registry lock held and must be safe to call concurrently with
// whatever it reads.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.add(name, help, "gauge", renderLabels(labels), series{gf: fn})
}

// Histogram creates and registers a new histogram over bounds (nil =
// DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...string) *Histogram {
	h := NewHistogram(bounds...)
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// RegisterHistogram registers an existing histogram.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.add(name, help, "histogram", renderLabels(labels), series{h: h})
}

// formatSeconds renders a duration as a float seconds literal the way
// Prometheus expects bucket bounds and sums (no exponent, no trailing
// zeros beyond precision).
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func bucketName(name, labels, le string) string {
	if labels == "" {
		return name + `_bucket{le="` + le + `"}`
	}
	return name + `_bucket{` + labels + `,le="` + le + `"}`
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histogram bounds and sums are
// written in seconds, per the Prometheus base-unit convention.
func (r *Registry) WriteText(w io.Writer) error {
	// Render from a copy: gauge functions take their owners' locks, so
	// they must not run under the registry's.
	r.mu.Lock()
	families := make([]family, len(r.families))
	for i, f := range r.families {
		families[i] = *f
		families[i].series = append([]series(nil), f.series...)
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, s.labels), s.c.Load())
			case s.g != nil:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, s.labels), s.g.Load())
			case s.gf != nil:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, s.labels), s.gf())
			case s.h != nil:
				snap := s.h.Snapshot()
				var cum uint64
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(&b, "%s %d\n", bucketName(f.name, s.labels, formatSeconds(bound)), cum)
				}
				cum += snap.Counts[len(snap.Bounds)]
				fmt.Fprintf(&b, "%s %d\n", bucketName(f.name, s.labels, "+Inf"), cum)
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name+"_sum", s.labels), formatSeconds(snap.Sum))
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_count", s.labels), snap.Count)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry at any path in the Prometheus text
// format, for mounting as a /metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Serve starts an HTTP server on addr exposing the registry at
// /metrics, returning the bound address (addr may use port 0). The
// server runs on a background goroutine until close is called.
func Serve(addr string, r *Registry) (bound string, close func() error, err error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	srv := &http.Server{Handler: mux}
	ln, err := newListener(addr)
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

func newListener(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
