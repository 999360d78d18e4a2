// Command smtool inspects and exercises shifted mirror disk arrays.
//
// Subcommands:
//
//	layout  -n 3 -arrangement shifted          render a stripe layout and its properties
//	layouts -n 4                               list the registered layout catalog with property verdicts
//	plan    -n 5 -parity -fail data:1,mirror:3 print the reconstruction plan for a failure
//	recon   -n 5 -fail data:0                  simulate reconstruction and report throughput
//	verify  -n 5 -parity -fail data:0,parity:0 byte-level recovery verification
//	write     -n 5 -parity -ops 1000           simulate the random large-write workload
//	search    -n 3 -limit 4                    enumerate alternative valid arrangements
//	device    -parity -fail data:1,mirror:3    run an in-process device: fail, degraded reads, rebuild, scrub
//	servedisk -addr :9800 -size 1048576        serve one raw disk store over TCP
//	cluster   -n 4 -fail data:0                run a networked volume end to end
//	shard     -groups 3 -fail 1:data:0         run a sharded multi-group volume
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
	"strconv"
	"strings"
	"time"

	"shiftedmirror/internal/analysis"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
	"shiftedmirror/internal/recon"
	"shiftedmirror/internal/shard"
	"shiftedmirror/internal/trace"
	"shiftedmirror/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "layout":
		err = cmdLayout(os.Args[2:])
	case "layouts":
		err = cmdLayouts(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "recon":
		err = cmdRecon(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "write":
		err = cmdWrite(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "mttdl":
		err = cmdMTTDL(os.Args[2:])
	case "device":
		err = cmdDevice(os.Args[2:])
	case "servedisk":
		err = cmdServeDisk(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "smtool: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: smtool <layout|layouts|plan|recon|verify|write|search|trace|mttdl|device|servedisk|cluster|shard> [flags]
run "smtool <subcommand> -h" for subcommand flags`)
}

// parseArrangement builds an arrangement from its CLI name.
func parseArrangement(name string, n int) (layout.Arrangement, error) {
	return layout.ParseSpec(name, n)
}

// parseFailures parses "data:0,mirror:3,parity:0".
func parseFailures(s string) ([]raid.DiskID, error) {
	if s == "" {
		return nil, fmt.Errorf("no failed disks given (use -fail data:0,mirror:3)")
	}
	return raid.ParseDiskList(s)
}

func buildArch(arrName string, n int, parity bool) (*raid.Mirror, error) {
	arr, err := parseArrangement(arrName, n)
	if err != nil {
		return nil, err
	}
	if parity {
		return raid.NewMirrorWithParity(arr), nil
	}
	return raid.NewMirror(arr), nil
}

func cmdLayout(args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	n := fs.Int("n", 3, "data disks")
	arrName := fs.String("arrangement", "shifted", "shifted, traditional or iterated:K")
	fs.Parse(args)
	arr, err := parseArrangement(*arrName, *n)
	if err != nil {
		return err
	}
	fmt.Print(layout.RenderPair(arr))
	fmt.Printf("properties: %v\n", layout.Check(arr))
	return nil
}

// cmdLayouts prints the registered layout catalog: one row per family
// instantiated at -n, with the paper's P1/P2/P3 verdicts and, for
// pooled placements, the pool geometry the cluster would run under.
func cmdLayouts(args []string) error {
	fs := flag.NewFlagSet("layouts", flag.ExitOnError)
	n := fs.Int("n", 4, "data disks to instantiate each family at")
	fs.Parse(args)
	fmt.Printf("registered layouts at n=%d (P1/P2/P3 are the paper's §IV-B properties):\n\n", *n)
	fmt.Printf("%-16s %-24s %-10s %s\n", "name", "instance", "properties", "placement")
	for _, name := range layout.Names() {
		arr, err := layout.New(name, *n)
		if err != nil {
			fmt.Printf("%-16s not constructible at n=%d: %v\n", name, *n, err)
			continue
		}
		place := "classic (n data + n mirror disks)"
		if p, ok := arr.(layout.Placement); ok {
			place = fmt.Sprintf("pooled: %d disks, period %d stripes", p.Width(), p.Period())
		}
		fmt.Printf("%-16s %-24s %-10v %s\n", name, arr.Name(), layout.Check(arr), place)
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	n := fs.Int("n", 5, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	failSpec := fs.String("fail", "", "failed disks, e.g. data:1,mirror:3")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	failed, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	plan, err := arch.RecoveryPlan(failed)
	if err != nil {
		return err
	}
	fmt.Printf("architecture: %s (fault tolerance %d)\n", arch.Name(), arch.FaultTolerance())
	fmt.Printf("availability read accesses per stripe: %d\n", plan.AvailAccesses())
	fmt.Printf("full reconstruction read accesses per stripe: %d\n", plan.FullAccesses())
	fmt.Printf("reads (%d):\n", len(plan.Reads))
	for _, r := range plan.Reads {
		fmt.Printf("  %v\n", r)
	}
	fmt.Printf("recoveries (%d):\n", len(plan.Recoveries))
	for _, rec := range plan.Recoveries {
		fmt.Printf("  %v <- %s of %v\n", rec.Target, rec.Method, rec.From)
	}
	return nil
}

func cmdRecon(args []string) error {
	fs := flag.NewFlagSet("recon", flag.ExitOnError)
	n := fs.Int("n", 5, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	failSpec := fs.String("fail", "", "failed disks")
	stripes := fs.Int("stripes", 64, "stripes per array")
	distributed := fs.Bool("distributed", false, "spread recovered elements over surviving disks instead of a dedicated spare")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	failed, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	cfg := recon.DefaultConfig()
	cfg.Stripes = *stripes
	cfg.DistributedSpare = *distributed
	st, err := recon.NewSimulator(arch, cfg).Reconstruct(failed)
	if err != nil {
		return err
	}
	fmt.Printf("architecture:            %s\n", arch.Name())
	fmt.Printf("failed disks:            %v\n", st.Failed)
	fmt.Printf("recovered data:          %.1f MB\n", float64(st.RecoveredBytes)/1e6)
	fmt.Printf("availability throughput: %.1f MB/s\n", st.AvailThroughputMBs)
	fmt.Printf("avail accesses/stripe:   %.1f\n", st.AvailAccessesPerStripe)
	fmt.Printf("total read time:         %.2f s\n", st.ReadTime)
	fmt.Printf("total rebuild time:      %.2f s\n", st.TotalTime)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	n := fs.Int("n", 5, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	failSpec := fs.String("fail", "", "failed disks")
	stripes := fs.Int("stripes", 8, "stripes to verify")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	failed, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	if err := recon.VerifyRecovery(arch, *stripes, 64, 1, failed); err != nil {
		return err
	}
	fmt.Printf("ok: %s recovered %v byte-identically over %d stripes\n", arch.Name(), failed, *stripes)
	return nil
}

func cmdWrite(args []string) error {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	n := fs.Int("n", 5, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	ops := fs.Int("ops", 1000, "random large writes")
	stripes := fs.Int("stripes", 64, "stripes per array")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	cfg := recon.DefaultConfig()
	cfg.Stripes = *stripes
	w := workload.LargeWrites(*seed, *ops, *n, *stripes)
	st, err := recon.NewSimulator(arch, cfg).RunWrites(w, raid.WriteAuto)
	if err != nil {
		return err
	}
	fmt.Printf("architecture:      %s\n", arch.Name())
	fmt.Printf("user data written: %.1f MB\n", float64(st.UserBytes)/1e6)
	fmt.Printf("write throughput:  %.1f MB/s\n", st.ThroughputMBs)
	fmt.Printf("pre-read accesses: %d\n", st.PreReadAccesses)
	fmt.Printf("write accesses:    %d\n", st.WriteAccesses)
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 4, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	failSpec := fs.String("fail", "data:0", "failed disks")
	stripes := fs.Int("stripes", 4, "stripes to reconstruct")
	width := fs.Int("width", 72, "timeline width in columns")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	failed, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	cfg := recon.DefaultConfig()
	cfg.Stripes = *stripes
	sim := recon.NewSimulator(arch, cfg)
	col := trace.NewCollector()
	for _, role := range []raid.Role{raid.RoleData, raid.RoleMirror, raid.RoleMirror2, raid.RoleParity} {
		arr := sim.Array(role)
		if arr == nil {
			continue
		}
		for i, d := range arr.Disks {
			col.Attach(d, fmt.Sprintf("%s[%d]", role, i))
		}
	}
	st, err := sim.Reconstruct(failed)
	if err != nil {
		return err
	}
	fmt.Printf("reconstruction of %v on %s (%d stripes)\n", failed, arch.Name(), *stripes)
	fmt.Printf("S/W sequential read/write, r/w random, '.' idle\n\n")
	fmt.Print(col.Render(*width))
	fmt.Printf("\navailability throughput: %.1f MB/s\n", st.AvailThroughputMBs)
	return nil
}

func cmdMTTDL(args []string) error {
	fs := flag.NewFlagSet("mttdl", flag.ExitOnError)
	n := fs.Int("n", 5, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	mttf := fs.Float64("mttf", 1_000_000, "per-disk MTTF in hours")
	capacity := fs.Int64("capacity", 17_000_000_000, "bytes per data disk (repair window scales with it)")
	stripes := fs.Int("stripes", 16, "simulated stripes for the repair model")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	cfg := recon.DefaultConfig()
	cfg.Stripes = *stripes
	sim := recon.NewSimulator(arch, cfg)
	mttdl, err := analysis.MTTDL(arch, 1 / *mttf, sim.RepairRate(*capacity))
	if err != nil {
		return err
	}
	fmt.Printf("architecture: %s\n", arch.Name())
	fmt.Printf("disk MTTF:    %.0f h, capacity %.1f GB/disk\n", *mttf, float64(*capacity)/1e9)
	fmt.Printf("MTTDL:        %.3g hours (%.3g years)\n", mttdl, mttdl/8766)
	return nil
}

func cmdDevice(args []string) error {
	fs := flag.NewFlagSet("device", flag.ExitOnError)
	n := fs.Int("n", 4, "data disks")
	arrName := fs.String("arrangement", "shifted", "arrangement")
	parity := fs.Bool("parity", false, "include the parity disk")
	dir := fs.String("dir", "", "directory for disk files and manifest (default: in-memory)")
	elementSize := fs.Int64("element", 4096, "element size in bytes")
	stripes := fs.Int("stripes", 8, "stripes per array")
	failSpec := fs.String("fail", "data:0", "disks to fail during the demo")
	fs.Parse(args)
	arch, err := buildArch(*arrName, *n, *parity)
	if err != nil {
		return err
	}
	diskSize := int64(*stripes) * int64(*n) * *elementSize
	stores := map[raid.DiskID]blockserver.Store{}
	where := "in-memory device"
	if *dir == "" {
		for _, id := range arch.Disks() {
			stores[id] = dev.NewMemStore(diskSize)
		}
	} else {
		files, err := dev.CreateOnFiles(arch, *elementSize, *stripes, *dir)
		if err != nil {
			return err
		}
		for id, f := range files {
			stores[id] = f
		}
		where = "file-backed device in " + *dir
	}
	d, err := cluster.NewLocal(arch, stores, cluster.Config{ElementSize: *elementSize, Stripes: *stripes})
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Printf("%s: %s, %d KiB\n", where, arch.Name(), d.Size()/1024)
	ctx := context.Background()
	payload := make([]byte, d.Size())
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := d.WriteAt(payload, 0); err != nil {
		return err
	}
	if _, err := d.Scrub(ctx); err != nil {
		return err
	}
	fmt.Println("filled; scrub clean")
	failed, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	for _, id := range failed {
		if err := d.Fail(id); err != nil {
			return err
		}
		// The disk's content is lost: wipe it, so the rebuild has to
		// bring every byte back.
		if _, err := stores[id].WriteAt(make([]byte, diskSize), 0); err != nil {
			return err
		}
		fmt.Printf("failed %v (store wiped)\n", id)
	}
	check := make([]byte, d.Size())
	if _, err := d.ReadAt(check, 0); err != nil {
		return fmt.Errorf("degraded read: %w", err)
	}
	if !bytes.Equal(check, payload) {
		return fmt.Errorf("degraded read returned wrong data")
	}
	h := d.Health()
	fmt.Printf("degraded reads intact (%d from replicas, %d from parity)\n", h.DegradedReads-h.ParityReads, h.ParityReads)
	for _, id := range failed {
		if err := d.RebuildDisk(ctx, id); err != nil {
			return err
		}
		fmt.Printf("rebuilt %v\n", id)
	}
	if _, err := d.Scrub(ctx); err != nil {
		return err
	}
	fmt.Println("post-rebuild scrub clean")
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	n := fs.Int("n", 3, "data disks (keep <= 5)")
	limit := fs.Int("limit", 4, "arrangements to print (0 = all)")
	fs.Parse(args)
	if *n > 5 {
		return fmt.Errorf("search space explodes past n=5 (asked for n=%d)", *n)
	}
	found := layout.SearchValid(*n, *limit)
	fmt.Printf("%d arrangements satisfying P1+P2+P3 at n=%d:\n\n", len(found), *n)
	for _, a := range found {
		fmt.Print(layout.RenderPair(a))
		fmt.Println()
	}
	return nil
}

// openDiskImage opens the file servedisk serves: an existing image as it
// is — its bytes and its size, whatever -size says — or a new zeroed one
// of the given size. Restarting a backend must not wipe its disk.
func openDiskImage(path string, size int64) (*dev.FileStore, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return dev.OpenFileStore(path, size)
	}
	return dev.ReopenFileStore(path)
}

func cmdServeDisk(args []string) error {
	fs := flag.NewFlagSet("servedisk", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9800", "listen address")
	size := fs.Int64("size", 1<<20, "disk capacity in bytes (ignored with -path on an existing file)")
	path := fs.String("path", "", "back the disk with this file (default: in-memory)")
	rate := fs.Float64("rate", 0, "read bandwidth cap in MB/s (0 = unthrottled)")
	crc := fs.Bool("crc", false, "keep a per-block CRC32C sidecar and serve the checksummed opcodes")
	crcBlock := fs.Int64("crcblock", 4096, "sidecar block size in bytes with -crc (match the volume's element size)")
	inject := fs.String("inject", "", "fault-injection spec, e.g. delay=5ms,jitter=2ms,stall=100ms,stallevery=8,corruptevery=0,errevery=0,seed=7 (default: none)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics on this address (e.g. :9090; default: off)")
	fs.Parse(args)
	var store blockserver.Store
	if *path == "" {
		store = dev.NewMemStore(*size)
	} else {
		f, err := openDiskImage(*path, *size)
		if err != nil {
			return err
		}
		defer f.Close()
		store = f
	}
	if *inject != "" {
		icfg, err := faultinject.ParseSpec(*inject)
		if err != nil {
			return err
		}
		store = faultinject.Wrap(store, icfg)
		fmt.Printf("fault injection active: %s\n", *inject)
	}
	var opts []blockserver.ServerOption
	if *rate > 0 {
		opts = append(opts, blockserver.WithReadRate(*rate*1e6))
	}
	if *crc {
		opts = append(opts, blockserver.WithCRC(*crcBlock))
		fmt.Printf("CRC sidecar active: %d-byte blocks\n", *crcBlock)
	}
	if *metricsAddr != "" {
		m := blockserver.NewMetrics()
		opts = append(opts, blockserver.WithMetrics(m))
		reg := obs.NewRegistry()
		m.Register(reg)
		bound, _, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}
	srv := blockserver.NewStoreServer(store, opts...)
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving raw disk (%d KiB) on %s — ctrl-c to stop\n", store.Size()/1024, bound)
	select {} // serve until killed
}

// selfHostBackends starts one in-process store server per disk and
// returns the address map plus a spawner for replacement backends.
// crcBlock > 0 gives every backend (including replacements) a CRC
// sidecar at that block size.
func selfHostBackends(arch *raid.Mirror, diskSize int64, rate float64, crcBlock int64) (map[raid.DiskID]string, func() (string, error), error) {
	var opts []blockserver.ServerOption
	if rate > 0 {
		opts = append(opts, blockserver.WithReadRate(rate*1e6))
	}
	if crcBlock > 0 {
		opts = append(opts, blockserver.WithCRC(crcBlock))
	}
	spawn := func() (string, error) {
		srv := blockserver.NewStoreServer(dev.NewMemStore(diskSize), opts...)
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		return bound.String(), nil
	}
	backends := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		addr, err := spawn()
		if err != nil {
			return nil, nil, err
		}
		backends[id] = addr
	}
	return backends, spawn, nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	n := fs.Int("n", 4, "data disks")
	arrName := fs.String("arrangement", "shifted", "layout of the volume: any name from 'smtool layouts', or a spec such as iterated:K, rotated:G")
	elementSize := fs.Int64("element", 4096, "element size in bytes")
	stripes := fs.Int("stripes", 16, "stripes per array")
	rate := fs.Float64("rate", 0, "per-backend read bandwidth cap in MB/s (self-hosted backends only)")
	backendList := fs.String("backends", "", "comma-separated backend addresses in arch.Disks() order (default: self-host in-process servers)")
	failSpec := fs.String("fail", "", "disks to fail and rebuild, e.g. data:0")
	replace := fs.String("replace", "", "replacement backend address for the failed disk (external backends only)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics on this address during the run (default: off)")
	statsJSON := fs.Bool("stats", false, "print the final Volume.Stats() snapshot as JSON")
	hedge := fs.Bool("hedge", false, "enable hedged reads (race slow backends against replica locations)")
	crc := fs.Bool("crc", false, "end-to-end checksummed wire path (self-hosted backends get a matching CRC sidecar)")
	pipeline := fs.Bool("pipeline", false, "pipelined wire mode: multiplex tagged frames over the pooled connections (out-of-order completion, coalesced writev)")
	pipeWindow := fs.Int("pipewindow", 0, "in-flight ops per pipelined connection (0 = default)")
	qosSLO := fs.Duration("qos", 0, "rebuild QoS: throttle the rebuild to hold user-read p99 under this SLO (0 = off, rebuild runs flat out)")
	qosMin := fs.Float64("qosmin", 0, "rebuild QoS floor rate in stripes/sec (forward-progress guarantee; 0 = default 1)")
	fs.Parse(args)

	arch, err := buildArch(*arrName, *n, false)
	if err != nil {
		return err
	}
	cfg := cluster.Config{
		ElementSize: *elementSize, Stripes: *stripes,
		HedgeEnabled: *hedge,
		WireCRC:      *crc,
		Pipeline:     *pipeline, PipelineWindow: *pipeWindow,
		RebuildQoSSLO: *qosSLO, RebuildQoSMinRate: *qosMin,
	}
	diskSize := int64(*stripes) * int64(*n) * *elementSize

	var backends map[raid.DiskID]string
	var spawn func() (string, error)
	if *backendList == "" {
		var crcBlock int64
		if *crc {
			crcBlock = *elementSize
		}
		backends, spawn, err = selfHostBackends(arch, diskSize, *rate, crcBlock)
		if err != nil {
			return err
		}
		fmt.Printf("self-hosted %d store servers (%d KiB each)\n", len(backends), diskSize/1024)
	} else {
		addrs := strings.Split(*backendList, ",")
		disks := arch.Disks()
		if len(addrs) != len(disks) {
			return fmt.Errorf("%d backend addresses for %d disks (order: %v)", len(addrs), len(disks), disks)
		}
		backends = map[raid.DiskID]string{}
		for i, id := range disks {
			backends[id] = strings.TrimSpace(addrs[i])
		}
	}

	v, err := cluster.New(arch, backends, cfg)
	if err != nil {
		return err
	}
	defer v.Close()
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		v.RegisterMetrics(reg)
		bound, closeMetrics, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer closeMetrics()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}
	if err := v.Verify(); err != nil {
		return err
	}
	fmt.Printf("volume: %s over %d backends, %d KiB logical\n", arch.Name(), len(backends), v.Size()/1024)

	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		return err
	}
	rep, err := v.Scrub(context.Background())
	if errors.Is(err, cluster.ErrDegraded) {
		return fmt.Errorf("scrub skipped backends %v: %w", rep.Skipped, err)
	}
	if err != nil {
		return err
	}
	fmt.Printf("filled; scrub clean (%d elements compared, %d by checksum)\n",
		rep.ElementsCompared, rep.ChecksumCompared)

	if *failSpec != "" {
		failed, err := parseFailures(*failSpec)
		if err != nil {
			return err
		}
		for _, id := range failed {
			if err := v.Fail(id); err != nil {
				return err
			}
			fmt.Printf("failed %v\n", id)
		}
		check := make([]byte, v.Size())
		if _, err := v.ReadAt(check, 0); err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
		if !bytes.Equal(check, payload) {
			return fmt.Errorf("degraded read returned wrong data")
		}
		fmt.Println("degraded reads intact")
		for _, id := range failed {
			addr := *replace
			if spawn != nil {
				if addr, err = spawn(); err != nil {
					return err
				}
			}
			if addr == "" {
				return fmt.Errorf("rebuilding %v onto its old backend needs -replace with external backends", id)
			}
			if err := v.ReplaceBackend(id, addr); err != nil {
				return err
			}
			start := time.Now()
			if err := v.RebuildDisk(context.Background(), id); err != nil {
				return err
			}
			fmt.Printf("rebuilt %v onto %s in %v\n", id, addr, time.Since(start).Round(time.Millisecond))
		}
		if _, err := v.ReadAt(check, 0); err != nil {
			return err
		}
		if !bytes.Equal(check, payload) {
			return fmt.Errorf("post-rebuild read returned wrong data")
		}
		rep, err := v.Scrub(context.Background())
		if errors.Is(err, cluster.ErrDegraded) {
			return fmt.Errorf("post-rebuild scrub skipped backends %v: %w", rep.Skipped, err)
		}
		if err != nil {
			return err
		}
		fmt.Printf("post-rebuild scrub clean (%d elements compared, %d by checksum)\n",
			rep.ElementsCompared, rep.ChecksumCompared)
	}

	h := v.Health()
	fmt.Printf("\nhealth: %d elements read, %d written, %d degraded reads, %d failovers\n",
		h.ElementsRead, h.ElementsWritten, h.DegradedReads, h.Failovers)
	if h.Rebuilds > 0 {
		fmt.Printf("rebuilds: %d (%.1f MB at %.1f MB/s)\n", h.Rebuilds, float64(h.RebuildBytes)/1e6, h.RebuildMBps)
	}
	// The full Stats snapshot carries the sm_cluster_hedge_* totals the
	// health struct does not; surface them alongside the pool counters so
	// hedging effectiveness is visible without scraping metrics.
	finalStats := v.Stats()
	if hs := finalStats.Hedge; *hedge || hs.Attempts > 0 {
		fmt.Printf("hedging: %d attempts, %d wins, %d losses, %d cancels\n",
			hs.Attempts, hs.Wins, hs.Losses, hs.Cancels)
	}
	if ps := finalStats.Pipeline; ps.Enabled {
		coalesce := 0.0
		if ps.Writevs > 0 {
			coalesce = float64(ps.Frames) / float64(ps.Writevs)
		}
		fmt.Printf("pipeline: %d submitted, %d abandoned, %d frames in %d writevs (%.1f frames/writev), queue-wait p99 %v\n",
			ps.Submitted, ps.Abandoned, ps.Frames, ps.Writevs, coalesce,
			ps.QueueWait.Quantile(0.99).Round(time.Microsecond))
	}
	if qs := finalStats.QoS; qs.Enabled {
		fmt.Printf("rebuild qos: slo %s, rate %.1f stripes/s, headroom %dus, %d throttles, %d boosts, %.2fs waited\n",
			time.Duration(qs.SLO*float64(time.Second)).Round(time.Microsecond),
			qs.RateStripesPerSec, qs.HeadroomMicros, qs.Throttles, qs.Boosts, qs.WaitSeconds)
	}
	fmt.Printf("%-12s %-21s %5s %5s %8s %7s %5s %6s\n", "disk", "backend", "dead", "fail", "requests", "retries", "dials", "errors")
	for _, b := range h.Backends {
		fmt.Printf("%-12v %-21s %5v %5v %8d %7d %5d %6d\n",
			b.ID, b.Addr, b.Dead, b.Failed, b.Requests, b.Retries, b.Dials, b.Errors)
	}
	if *statsJSON {
		// finalStats marshals the complete snapshot, hedge win/loss
		// totals included (Stats.Hedge -> "hedge" in the JSON).
		blob, err := json.MarshalIndent(finalStats, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", blob)
	}
	return nil
}

// parseGroupFailures parses "1:data:0,2:mirror:1" into (group, disk)
// pairs for the sharded volume.
func parseGroupFailures(s string) ([]shard.GroupDisk, []raid.DiskID, error) {
	var gds []shard.GroupDisk
	var ids []raid.DiskID
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		gidStr, diskStr, ok := strings.Cut(item, ":")
		if !ok {
			return nil, nil, fmt.Errorf("bad failure spec %q (want group:role:index)", item)
		}
		gid, err := strconv.Atoi(gidStr)
		if err != nil {
			return nil, nil, fmt.Errorf("bad group in failure spec %q: %w", item, err)
		}
		disks, err := raid.ParseDiskList(diskStr)
		if err != nil || len(disks) != 1 {
			return nil, nil, fmt.Errorf("bad disk in failure spec %q (want group:role:index)", item)
		}
		gds = append(gds, shard.GroupDisk{Group: gid, Disk: disks[0].String()})
		ids = append(ids, disks[0])
	}
	return gds, ids, nil
}

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	n := fs.Int("n", 3, "data disks per group")
	arrName := fs.String("arrangement", "shifted", "layout of every group: any name from 'smtool layouts', or a spec such as iterated:K, rotated:G")
	elementSize := fs.Int64("element", 4096, "element size in bytes")
	stripes := fs.Int("stripes", 8, "stripes per group")
	groups := fs.Int("groups", 3, "shifted-mirror groups striping the logical volume")
	rates := fs.String("rates", "", "comma-separated per-group read caps in MB/s, e.g. 500,500,80 to mix SSD and HDD tiers (default: unthrottled)")
	failSpec := fs.String("fail", "", "group:disk pairs to fail and rebuild via the scheduler, e.g. 1:data:0,2:data:1")
	concurrency := fs.Int("concurrency", 2, "max groups the rebuild scheduler drives at once")
	metricsAddr := fs.String("metrics", "", "serve Prometheus metrics on this address during the run (default: off)")
	tableJSON := fs.Bool("table", false, "print the placement table as JSON")
	statsJSON := fs.Bool("stats", false, "print the final ShardedVolume.Stats() snapshot as JSON")
	fs.Parse(args)

	arch, err := buildArch(*arrName, *n, false)
	if err != nil {
		return err
	}
	if *groups < 1 {
		return fmt.Errorf("need at least one group")
	}
	groupRates := make([]float64, *groups)
	if *rates != "" {
		parts := strings.Split(*rates, ",")
		if len(parts) != 1 && len(parts) != *groups {
			return fmt.Errorf("%d rates for %d groups (give one per group, or one for all)", len(parts), *groups)
		}
		for i := range groupRates {
			p := parts[0]
			if len(parts) > 1 {
				p = parts[i]
			}
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("bad rate %q: %w", p, err)
			}
			groupRates[i] = r
		}
	}

	diskSize := int64(*stripes) * int64(*n) * *elementSize
	backends := make([]map[raid.DiskID]string, *groups)
	spawners := make([]func() (string, error), *groups)
	for g := range backends {
		backends[g], spawners[g], err = selfHostBackends(arch, diskSize, groupRates[g], 0)
		if err != nil {
			return err
		}
	}
	fmt.Printf("self-hosted %d groups × %d store servers (%d KiB per disk)\n",
		*groups, len(backends[0]), diskSize/1024)

	cfg := shard.Config{MaxConcurrentRebuilds: *concurrency}
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := shard.Open(arch, backends, cfg, cluster.WithGeometry(*elementSize, *stripes))
	if err != nil {
		return err
	}
	defer s.Close()
	if cfg.Metrics != nil {
		bound, closeMetrics, err := obs.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer closeMetrics()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}
	fmt.Printf("sharded volume: %s × %d groups, %d extents, %d KiB logical\n",
		arch.Name(), *groups, len(s.ExtentTable()), s.Size()/1024)

	payload := make([]byte, s.Size())
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := s.WriteAt(payload, 0); err != nil {
		return err
	}
	rep, err := s.Scrub(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("filled; scrub clean (%d elements compared across %d groups)\n",
		rep.ElementsCompared, *groups)

	if *failSpec != "" {
		gds, ids, err := parseGroupFailures(*failSpec)
		if err != nil {
			return err
		}
		for i, gd := range gds {
			if err := s.Fail(gd.Group, ids[i]); err != nil {
				return err
			}
			fmt.Printf("failed group %d %v\n", gd.Group, ids[i])
		}
		check := make([]byte, s.Size())
		if _, err := s.ReadAt(check, 0); err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
		if !bytes.Equal(check, payload) {
			return fmt.Errorf("degraded read returned wrong data")
		}
		fmt.Println("degraded reads intact")
		for i, gd := range gds {
			addr, err := spawners[gd.Group]()
			if err != nil {
				return err
			}
			if err := s.ReplaceBackend(gd.Group, ids[i], addr); err != nil {
				return err
			}
		}
		// The scheduler orders groups most-incomplete-first and runs at
		// most -concurrency of them at once.
		start := time.Now()
		if err := s.RebuildPending(context.Background()); err != nil {
			return err
		}
		fmt.Printf("scheduler rebuilt %d disks in %v\n", len(gds), time.Since(start).Round(time.Millisecond))
		if _, err := s.ReadAt(check, 0); err != nil {
			return err
		}
		if !bytes.Equal(check, payload) {
			return fmt.Errorf("post-rebuild read returned wrong data")
		}
		if _, err := s.Scrub(context.Background()); err != nil {
			return fmt.Errorf("post-rebuild scrub: %w", err)
		}
		fmt.Println("post-rebuild scrub clean")
	}

	h := s.Health()
	fmt.Printf("\nhealth: %d groups, %d KiB, devices %d online / %d dead / %d pending / %d rebuilding, max incompleteness %d stripes\n",
		h.Groups, h.SizeBytes/1024, h.Devices.Online, h.Devices.Dead,
		h.Devices.ReplacementPending, h.Devices.Rebuilding, h.Devices.MaxIncompleteness)
	if *tableJSON {
		blob, err := json.MarshalIndent(s.Placement().Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", blob)
	}
	if *statsJSON {
		blob, err := json.MarshalIndent(s.Stats(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", blob)
	}
	return nil
}
