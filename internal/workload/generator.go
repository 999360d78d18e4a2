package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"shiftedmirror/internal/obs"
)

// Multi-tenant load generation against live volumes. The paper's
// availability claim is about reconstruction *under traffic*, so besides
// the simulator-facing op lists above, this file generates seeded
// multi-tenant read/write mixes and replays them against anything with
// the cluster data path (internal/cluster.Volume, internal/shard
// sharded volumes) while recording per-tenant service latencies.
//
// The op *stream* is a pure function of (seed, specs, count, size):
// tenant choice, op kind, offset, length, payload, and open-loop arrival
// time are all fixed at generation. Replay mode — open loop (issue at
// the arrival schedule, overlapping in-flight ops like real user
// traffic) versus closed loop (a fixed worker count per tenant, next op
// issued when the previous completes) — affects only *when* ops are
// issued, never what they are. That is what makes A/B runs fair: the
// traditional and shifted arrangements, or an idle and a rebuilding
// volume, see byte-identical streams.

// OpKind is a generated op's direction.
type OpKind uint8

const (
	// OpRead reads Len bytes at Off.
	OpRead OpKind = iota
	// OpWrite writes Len bytes at Off.
	OpWrite
)

func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

// Op is one generated request. Off/Len address the target volume's
// logical byte space; Arrival is the op's open-loop issue time in
// seconds from stream start (closed-loop replay ignores it).
type Op struct {
	Tenant  int
	Kind    OpKind
	Off     int64
	Len     int
	Arrival float64
}

// TenantSpec describes one tenant's share of a generated stream.
type TenantSpec struct {
	// Name labels the tenant in results and reports.
	Name string
	// Weight is the tenant's relative share of the stream's ops
	// (default 1).
	Weight int
	// ReadFraction in [0,1] is the probability an op reads; the rest
	// write. Default 1 (read-only).
	ReadFraction float64
	// OpBytes is the request size; offsets are OpBytes-aligned so ops
	// cover whole requests, never partial overlaps. Default 4096.
	OpBytes int64
	// MeanGap is the open-loop mean inter-arrival gap in seconds
	// (exponential) applied when this tenant's op is next in the stream.
	// Default 1ms.
	MeanGap float64
}

func (s TenantSpec) withDefaults(i int) TenantSpec {
	if s.Name == "" {
		s.Name = fmt.Sprintf("tenant%d", i)
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.ReadFraction <= 0 {
		s.ReadFraction = 1
	}
	if s.OpBytes <= 0 {
		s.OpBytes = 4096
	}
	if s.MeanGap <= 0 {
		s.MeanGap = time.Millisecond.Seconds()
	}
	return s
}

// Ops generates a deterministic multi-tenant stream of count ops over a
// volume of size bytes. The same (seed, count, size, tenants) always
// yields the identical stream; see the package note on replay-mode
// independence.
func Ops(seed int64, count int, size int64, tenants []TenantSpec) []Op {
	if count < 0 || size <= 0 || len(tenants) == 0 {
		panic(fmt.Sprintf("workload: invalid Ops(count=%d, size=%d, tenants=%d)", count, size, len(tenants)))
	}
	specs := make([]TenantSpec, len(tenants))
	totalWeight := 0
	for i, s := range tenants {
		specs[i] = s.withDefaults(i)
		if specs[i].OpBytes > size {
			panic(fmt.Sprintf("workload: tenant %q OpBytes %d exceeds volume size %d", specs[i].Name, specs[i].OpBytes, size))
		}
		totalWeight += specs[i].Weight
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, count)
	now := 0.0
	for i := range ops {
		pick := rng.Intn(totalWeight)
		tenant := 0
		for pick >= specs[tenant].Weight {
			pick -= specs[tenant].Weight
			tenant++
		}
		spec := specs[tenant]
		kind := OpRead
		if rng.Float64() >= spec.ReadFraction {
			kind = OpWrite
		}
		slots := size / spec.OpBytes
		now += rng.ExpFloat64() * spec.MeanGap
		ops[i] = Op{
			Tenant:  tenant,
			Kind:    kind,
			Off:     rng.Int63n(slots) * spec.OpBytes,
			Len:     int(spec.OpBytes),
			Arrival: now,
		}
	}
	return ops
}

// Target is the context-first data path a stream replays against; both
// *cluster.Volume and the sharded volume implement it.
type Target interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
}

// ReplayConfig tunes a replay. The zero value works: no write payloads
// beyond zeros, closed-loop concurrency 1, real-time open-loop pacing.
type ReplayConfig struct {
	// Fill provides each write op's payload. It must be a pure function
	// of the op (it may be called from concurrent goroutines, and
	// determinism tests replay the same stream twice expecting identical
	// bytes). Nil writes zeros.
	Fill func(op Op, buf []byte)
	// Concurrency is the closed-loop worker count per tenant (default
	// 1). Open-loop replay ignores it — there, concurrency is whatever
	// the arrival schedule and service times produce.
	Concurrency int
	// TimeScale divides open-loop arrival gaps: 2 replays the schedule
	// at double speed. Default 1. Closed-loop replay ignores it.
	TimeScale float64
	// Observe, when set, receives every completed op with its service
	// time, before the per-tenant result accounting. It runs on replay
	// goroutines and must be concurrency-safe.
	Observe func(op Op, d time.Duration)
	// TenantNames labels the result's tenants (index-aligned with the
	// specs passed to Ops). Missing entries default to "tenant<i>".
	TenantNames []string
}

// TenantResult is one tenant's replay outcome. Latency slices are
// sorted ascending, ready for obs.NearestRankDur.
type TenantResult struct {
	Name      string
	Reads     int
	Writes    int
	ReadLats  []time.Duration
	WriteLats []time.Duration
}

// ReadP returns the q-quantile of the tenant's read service times
// (nearest-rank; see internal/obs).
func (t TenantResult) ReadP(q float64) time.Duration {
	return obs.NearestRankDur(t.ReadLats, q)
}

// Result is a replay's outcome: per-tenant service-time recordings in
// tenant-spec order.
type Result struct {
	Tenants []TenantResult
}

// ReadP returns the q-quantile over every tenant's reads combined.
func (r Result) ReadP(q float64) time.Duration {
	var all []time.Duration
	for _, t := range r.Tenants {
		all = append(all, t.ReadLats...)
	}
	return obs.NearestRankDur(obs.SortDurations(all), q)
}

// recorder accumulates latencies from replay goroutines.
type recorder struct {
	cfg ReplayConfig
	mu  sync.Mutex
	res Result
}

func newRecorder(ops []Op, cfg ReplayConfig) *recorder {
	tenants := 0
	for _, op := range ops {
		if op.Tenant >= tenants {
			tenants = op.Tenant + 1
		}
	}
	if len(cfg.TenantNames) > tenants {
		tenants = len(cfg.TenantNames)
	}
	r := &recorder{cfg: cfg}
	r.res.Tenants = make([]TenantResult, tenants)
	for i := range r.res.Tenants {
		if i < len(cfg.TenantNames) && cfg.TenantNames[i] != "" {
			r.res.Tenants[i].Name = cfg.TenantNames[i]
		} else {
			r.res.Tenants[i].Name = fmt.Sprintf("tenant%d", i)
		}
	}
	return r
}

func (r *recorder) record(op Op, d time.Duration) {
	if r.cfg.Observe != nil {
		r.cfg.Observe(op, d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.res.Tenants[op.Tenant]
	if op.Kind == OpWrite {
		t.Writes++
		t.WriteLats = append(t.WriteLats, d)
	} else {
		t.Reads++
		t.ReadLats = append(t.ReadLats, d)
	}
}

func (r *recorder) result() Result {
	for i := range r.res.Tenants {
		obs.SortDurations(r.res.Tenants[i].ReadLats)
		obs.SortDurations(r.res.Tenants[i].WriteLats)
	}
	return r.res
}

// issue runs one op against the target and records its service time.
func issue(ctx context.Context, t Target, op Op, cfg ReplayConfig, rec *recorder) error {
	buf := make([]byte, op.Len)
	start := time.Now()
	var err error
	if op.Kind == OpWrite {
		if cfg.Fill != nil {
			cfg.Fill(op, buf)
		}
		_, err = t.WriteAtCtx(ctx, buf, op.Off)
	} else {
		_, err = t.ReadAtCtx(ctx, buf, op.Off)
	}
	if err != nil {
		return fmt.Errorf("workload: %s tenant %d off %d: %w", op.Kind, op.Tenant, op.Off, err)
	}
	rec.record(op, time.Since(start))
	return nil
}

// ReplayOpen replays the stream open-loop: each op is issued at its
// Arrival offset from replay start (divided by cfg.TimeScale) without
// waiting for earlier ops, so a slow volume accumulates in-flight
// requests exactly the way queueing user traffic does. It returns when
// every issued op has completed. Cancelling ctx stops issuing, cancels
// in-flight ops, drains every goroutine, and returns ctx's error; the
// first op failure does the same.
func ReplayOpen(ctx context.Context, t Target, ops []Op, cfg ReplayConfig) (Result, error) {
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	rec := newRecorder(ops, cfg)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
loop:
	for _, op := range ops {
		due := time.Duration(op.Arrival / scale * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break loop
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(op Op) {
			defer wg.Done()
			if err := issue(ctx, t, op, cfg, rec); err != nil {
				select {
				case errs <- err:
					cancel() // first failure stops the replay
				default:
				}
			}
		}(op)
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		return rec.result(), err
	}
	select {
	case err := <-errs:
		return rec.result(), err
	default:
	}
	return rec.result(), nil
}

// ReplayClosed replays the stream closed-loop: cfg.Concurrency workers
// per tenant each issue their tenant's next op as soon as the previous
// one completes, preserving per-tenant stream order across workers'
// claims. Arrival times are ignored — the volume's own service rate
// paces the load. Cancelling ctx stops every worker promptly (in-flight
// ops are cancelled through the data path) and returns ctx's error with
// no goroutine left behind; the first op failure does the same.
func ReplayClosed(ctx context.Context, t Target, ops []Op, cfg ReplayConfig) (Result, error) {
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 1
	}
	rec := newRecorder(ops, cfg)
	byTenant := make([][]Op, len(rec.res.Tenants))
	for _, op := range ops {
		byTenant[op.Tenant] = append(byTenant[op.Tenant], op)
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for _, queue := range byTenant {
		var next sync.Mutex
		cursor := 0
		claim := func() (Op, bool) {
			next.Lock()
			defer next.Unlock()
			if cursor >= len(queue) {
				return Op{}, false
			}
			op := queue[cursor]
			cursor++
			return op, true
		}
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					op, ok := claim()
					if !ok {
						return
					}
					if err := issue(ctx, t, op, cfg, rec); err != nil {
						select {
						case errs <- err:
							cancel()
						default:
						}
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		return rec.result(), err
	}
	select {
	case err := <-errs:
		return rec.result(), err
	default:
	}
	return rec.result(), nil
}
