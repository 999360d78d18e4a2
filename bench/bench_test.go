package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// small returns a copy of the workload on a fleet shrunk to 16 stripes
// per group, so a test run fills, rebuilds and verifies in a fraction
// of a second. Everything else — clients, throttle, cycle — is the
// workload's own.
func small(sp *spec) *spec {
	c := *sp
	c.stripes = 16
	return &c
}

func testConfig(t *testing.T, sp *spec, seed int64) *config {
	if raceEnabled {
		t.Skip("workload runs overlap writes by design; see race_on_test.go")
	}
	seconds := 2.0
	if testing.Short() {
		seconds = 1
	}
	return &config{sp: small(sp), seed: seed, seconds: seconds, scratch: t.TempDir(), out: io.Discard, setups: 1}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkCatalogue asserts a run emitted exactly the catalogued metrics,
// each once (a map key), finite, with the catalogued unit.
func checkCatalogue(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	for _, p := range res.problems {
		t.Errorf("violation: %s", p)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		if !ok {
			t.Errorf("metric %s is emitted but not catalogued", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, catalogue says %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("metric %s is catalogued but was not emitted", name)
	}
}

func TestUntracedRunEmitsEveryEndToEndMetric(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runUntraced(context.Background(), testConfig(t, sp, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkCatalogue(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			c := testConfig(t, sp, 1)
			c.traceOut = filepath.Join(c.scratch, "spans.jsonl")
			res, err := runTraced(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			checkCatalogue(t, res, perLayer)
			get := func(name string) float64 { return res.Metrics[name].Value }

			// The paper's P1/P2 seen from outside.
			if got := get("cluster.rebuild_sources"); got != mirrorN {
				t.Errorf("shifted rebuild read from %v backends, want %d", got, mirrorN)
			}
			if got := get("cluster.rebuild_sources_traditional"); got != 1 {
				t.Errorf("traditional rebuild read from %v backends, want 1", got)
			}
			if got := get("cluster.rebuild_oracle_mismatch"); got != 0 {
				t.Errorf("rebuild reads differ from layout.RebuildSources on %v backends", got)
			}
			if got := get("cluster.degraded_reads"); got <= 0 {
				t.Errorf("cluster.degraded_reads = %v, want > 0", got)
			}

			// Wrapper fidelity: the timing store must keep Slice on a
			// MemStore (zero-copy stays on) and must not grow one on a
			// FileStore. A read-throttled server never serves zero-copy.
			zc := get("blockserver.zero_copy_share")
			if sp.file || sp.readRate > 0 {
				if zc != 0 {
					t.Errorf("zero_copy_share = %v on a fleet without the zero-copy path, want 0", zc)
				}
			} else if zc <= 0 {
				t.Errorf("zero_copy_share = %v on a MemStore fleet behind the timing store, want > 0", zc)
			}

			// The span file holds user ops with server and store children.
			f, err := os.Open(c.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			kinds := map[string]int{}
			parented := 0
			dec := json.NewDecoder(f)
			for dec.More() {
				var s span
				if err := dec.Decode(&s); err != nil {
					t.Fatal(err)
				}
				kinds[s.Name]++
				if s.Par != 0 {
					parented++
				}
				if s.End < s.Start {
					t.Fatalf("span %d ends before it starts", s.ID)
				}
			}
			if kinds["rebuild"] != 1 || kinds["op.read"]+kinds["op.write"] == 0 || parented == 0 {
				t.Errorf("span file has kinds %v and %d parented spans", kinds, parented)
			}
		})
	}
}

func TestSameSeedSameStreamAndCounts(t *testing.T) {
	exact := []string{"cluster.backend_requests_per_op", "cluster.write_batch_factor", "cluster.rebuild_sources"}
	for _, name := range []string{"small_rand", "open_mixed"} {
		sp := findSpec(name)
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *result {
				res, err := runTraced(context.Background(), testConfig(t, sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b, other := run(7), run(7), run(8)
			if a.streamHash != b.streamHash {
				t.Errorf("seed 7 gave op-stream hashes %x and %x", a.streamHash, b.streamHash)
			}
			if a.streamHash == other.streamHash {
				t.Errorf("seeds 7 and 8 gave the same op-stream hash %x", a.streamHash)
			}
			for _, m := range exact {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s: %v then %v for one seed, want identical", m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
		})
	}
}

func TestStreamHashCoversEveryWorkload(t *testing.T) {
	geo := geometry{size: fleetOpts{stripes: 16}.userBytes()}
	for slot := 0; slot < groupCount*16; slot++ {
		geo.slotGroup = append(geo.slotGroup, slot%groupCount)
	}
	for _, sp := range workloads {
		a, b, c := streamHash(sp, 3, geo), streamHash(sp, 3, geo), streamHash(sp, 4, geo)
		if a != b {
			t.Errorf("%s: seed 3 hashed to %x and %x", sp.name, a, b)
		}
		// A sequential client's stream does not depend on the seed; its
		// reference image does.
		if a == c && sp.clients[0].pattern != sequential {
			t.Errorf("%s: seeds 3 and 4 both hashed to %x", sp.name, a)
		}
	}
}

// TestCorruptStoreFailsTheRun flips one byte in a backend store behind
// the filled volume: the run must count failures and report incorrect.
func TestCorruptStoreFailsTheRun(t *testing.T) {
	// rebuild_fast's client only touches the lost disk's elements, so no
	// user write can repair the damaged byte before the final check.
	c := testConfig(t, findSpec("rebuild_fast"), 1)
	c.corrupt = func(f *fleet) {
		b := f.backends[1][lostDisk] // a disk no reconstruction cycle rewrites
		var one [1]byte
		if _, err := b.raw.ReadAt(one[:], 4097); err != nil {
			t.Fatal(err)
		}
		one[0] ^= 0x40
		if _, err := b.raw.WriteAt(one[:], 4097); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runUntraced(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.problems) == 0 {
		t.Fatalf("a flipped store byte went unnoticed: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.problems)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// catalogue in the program from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
