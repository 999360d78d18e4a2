// Command bench is the repository's one benchmark. It drives the public
// surface only — shiftedmirror.NewShardedVolume over in-process
// blockserver.NewStoreServer backends on loopback, default options plus
// WithGeometry — through six workloads, and checks every byte it reads.
//
//	go run ./bench                                # all workloads, end to end
//	go run ./bench -workload small_rand -seed 7   # one workload
//	go run ./bench -workload small_rand -trace 1  # per-layer numbers + span file
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run reports the per-layer metrics from the benchmark's own timing of
// each layer's public functions and never feeds an end-to-end number.
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. See README.md in this directory for the
// catalogue and BENCHMARK.json at the repository root for the bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, one after another)")
	seed := flag.Int64("seed", 1, "seed for the reference image and every op stream")
	seconds := flag.Float64("seconds", 10, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end run")
	traceOut := flag.String("traceout", "", "span file written by a traced run (default <scratch>/spans-<workload>.jsonl)")
	scratch := flag.String("scratch", ".bench_scratch", "directory for FileStore files and span files")
	jsonOnly := flag.Bool("json", false, "print only the JSON result lines")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var specs []*spec
	if *workload == "" {
		specs = workloads
	} else if sp := findSpec(*workload); sp != nil {
		specs = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	// The fleet is 32 servers and a handful of clients in one process;
	// more than four Ps only adds scheduling noise on bigger boxes.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var out io.Writer = os.Stdout
	if *jsonOnly {
		out = io.Discard
	}
	fmt.Fprintf(out, "bench: GOMAXPROCS=%d nproc=%d cpu=%q %s commit=%s seed=%d seconds=%g trace=%d\n",
		procs, runtime.NumCPU(), cpuModel(), runtime.Version(), commit(), *seed, *seconds, *trace)

	// An interrupt cancels the run; every fleet, volume and scratch
	// directory is torn down by the run's own deferred clean-up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ok := true
	for _, sp := range specs { // strictly one after another
		c := &config{sp: sp, seed: *seed, seconds: *seconds, scratch: *scratch, traceOut: *traceOut, out: out, setups: 3}
		run := runUntraced
		if *trace == 1 {
			run = runTraced
		}
		res, err := run(ctx, c)
		if err != nil {
			stop()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		report(out, sp, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		stop()
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a benchmark checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report prints every metric with its unit, the quartiles and sample
// count behind each median, and any correctness violation.
func report(w io.Writer, sp *spec, r *result) {
	fmt.Fprintf(w, "\n%s — %s\n", sp.name, sp.why)
	fmt.Fprintf(w, "  op-stream hash %016x, attempted %d, failed %d, correct %v\n", r.streamHash, r.Attempted, r.Failed, r.Correct)
	table := func(ms map[string]metric, note string) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m, d := ms[name], r.dists[name]
			fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, m.Value, m.Unit)
			if d.n > 1 && d.q3 != 0 {
				fmt.Fprintf(w, " [q1 %.6g, q3 %.6g, n %d]", d.q1, d.q3, d.n)
			} else if d.n > 1 {
				fmt.Fprintf(w, " [n %d]", d.n)
			}
			fmt.Fprintln(w, note)
		}
	}
	table(r.Metrics, "")
	table(r.diags, " (diagnostic, not in the result line)")
	for _, p := range r.problems {
		fmt.Fprintf(w, "  VIOLATION: %s\n", p)
	}
}
