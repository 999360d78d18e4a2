package blockserver

import (
	"time"

	"shiftedmirror/internal/obs"
)

// opNames maps opcodes to metric label values; slot 0 catches unknown
// opcodes, which are counted before the connection is torn down.
var opNames = [OpCrcV + 1]string{
	0:          "unknown",
	OpRead:     "read",
	OpWrite:    "write",
	OpSize:     "size",
	OpReadV:    "readv",
	OpWriteV:   "writev",
	OpFeatures: "features",
	OpReadVC:   "readvc",
	OpWriteVC:  "writevc",
	OpCrcV:     "crcv",
}

// opSlot folds an opcode into a metrics array index.
func opSlot(op byte) byte {
	if int(op) >= len(opNames) || opNames[op] == "" {
		return 0
	}
	return op
}

// Metrics collects one server's service counters: per-opcode operation
// counts, error counts and latency histograms, payload bytes in/out,
// and connection lifecycle counters. All updates are allocation-free;
// one Metrics may be shared by several servers (the counters simply
// aggregate).
type Metrics struct {
	ops  [len(opNames)]obs.Counter // completed requests per opcode
	errs [len(opNames)]obs.Counter // requests answered with a remote error
	lat  [len(opNames)]*obs.Histogram

	bytesIn  obs.Counter // payload bytes received (writes)
	bytesOut obs.Counter // payload bytes sent (reads, gathers)

	conns     obs.Counter // connections accepted
	connsTorn obs.Counter // connections torn down by transport/protocol errors mid-request

	zeroCopy  obs.Counter // requests served via the zero-copy (direct-store) path
	crcErrors obs.Counter // write ranges rejected for a CRC mismatch
}

// NewMetrics returns a Metrics with default latency buckets.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for i := range m.lat {
		m.lat[i] = obs.NewHistogram()
	}
	return m
}

// opAcct accumulates one request's payload accounting while it is being
// served; it rides in the request's reply and is folded into the
// metrics by Server.account.
type opAcct struct {
	in, out   int64
	remoteErr error // store-level error answered on a healthy connection
	zeroCopy  bool  // payload moved directly between socket and store memory
}

// record folds one completed request into the counters. err is the
// connection-fatal error (transport/protocol), nil for clean requests
// and for requests answered with a remote error.
func (m *Metrics) record(op byte, acct *opAcct, d time.Duration, err error) {
	s := opSlot(op)
	m.ops[s].Inc()
	m.lat[s].Observe(d)
	m.bytesIn.Add(acct.in)
	m.bytesOut.Add(acct.out)
	if acct.remoteErr != nil {
		m.errs[s].Inc()
		if IsCRC(acct.remoteErr) {
			m.crcErrors.Inc()
		}
	}
	if acct.zeroCopy {
		m.zeroCopy.Inc()
	}
	if err != nil {
		m.connsTorn.Inc()
	}
}

// Register exposes every counter and histogram on reg under the
// sm_blockserver_* namespace, labeled per opcode.
func (m *Metrics) Register(reg *obs.Registry) {
	for op, name := range opNames {
		if name == "" {
			continue
		}
		reg.RegisterCounter("sm_blockserver_ops_total",
			"Requests served, by opcode.", &m.ops[op], "op", name)
		reg.RegisterCounter("sm_blockserver_op_errors_total",
			"Requests answered with a remote error, by opcode.", &m.errs[op], "op", name)
		reg.RegisterHistogram("sm_blockserver_op_duration_seconds",
			"Request service time from opcode decode to response write, by opcode.", m.lat[op], "op", name)
	}
	reg.RegisterCounter("sm_blockserver_bytes_in_total",
		"Payload bytes received from clients (writes).", &m.bytesIn)
	reg.RegisterCounter("sm_blockserver_bytes_out_total",
		"Payload bytes sent to clients (reads and gathers).", &m.bytesOut)
	reg.RegisterCounter("sm_blockserver_connections_total",
		"Connections accepted.", &m.conns)
	reg.RegisterCounter("sm_blockserver_connections_torn_total",
		"Connections torn down mid-request by transport or protocol errors.", &m.connsTorn)
	reg.RegisterCounter("sm_wire_zero_copy_total",
		"Requests whose payload moved directly between socket and store memory.", &m.zeroCopy)
	reg.RegisterCounter("sm_wire_crc_errors_total",
		"Write ranges rejected by the server for a CRC-32C mismatch.", &m.crcErrors)
}

// OpStats is one opcode's corner of a MetricsSnapshot.
type OpStats struct {
	Ops    int64            `json:"ops"`
	Errors int64            `json:"errors"`
	Lat    obs.HistSnapshot `json:"latency"`
}

// MetricsSnapshot is a point-in-time, JSON-friendly copy of a Metrics.
type MetricsSnapshot struct {
	Ops       map[string]OpStats `json:"ops"`
	BytesIn   int64              `json:"bytes_in"`
	BytesOut  int64              `json:"bytes_out"`
	Conns     int64              `json:"connections"`
	ConnsTorn int64              `json:"connections_torn"`
	ZeroCopy  int64              `json:"zero_copy"`
	CRCErrors int64              `json:"crc_errors"`
}

// Snapshot copies the current counters. Opcodes that never ran are
// omitted.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Ops:       map[string]OpStats{},
		BytesIn:   m.bytesIn.Load(),
		BytesOut:  m.bytesOut.Load(),
		Conns:     m.conns.Load(),
		ConnsTorn: m.connsTorn.Load(),
		ZeroCopy:  m.zeroCopy.Load(),
		CRCErrors: m.crcErrors.Load(),
	}
	for op, name := range opNames {
		if name == "" || m.ops[op].Load() == 0 {
			continue
		}
		s.Ops[name] = OpStats{
			Ops:    m.ops[op].Load(),
			Errors: m.errs[op].Load(),
			Lat:    m.lat[op].Snapshot(),
		}
	}
	return s
}
