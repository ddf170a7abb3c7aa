package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Backend is the storage a Server fronts: exactly the surface of
// *cluster.Cluster the dispatch path calls, so a server daemon hosts one
// or more cluster nodes — a single-shard region server or a whole
// sub-cluster — behind one listener. It is an interface only so tests
// can wrap a cluster with hooks; there are no optional capabilities and
// no fallback paths. Writes and scans report failures (a backend may
// itself be a degraded cluster); the server carries them back as error
// frames.
type Backend interface {
	Get(key []byte) ([]byte, bool)
	Put(key, value []byte) error
	Delete(key []byte) error
	// AppendScan appends into a caller-owned slice the server recycles
	// across requests, and returns it (a failed scan's included) so the
	// server can clear it: entry keys/values alias engine records, which
	// the response encoding copies.
	AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error)
	// ApplyInto and TryApplyInto execute a batch into caller-owned result
	// slots (len(res) == len(ops)): backpressure and admission control.
	ApplyInto(ops []cluster.Op, res []cluster.OpResult) error
	TryApplyInto(ops []cluster.Op, res []cluster.OpResult) error
	// ApplyLocal and GetLocal are the store-only operations OpMirror and
	// OpGetLocal land on: they must not re-enter the destination's routing
	// or replication fan-out. A migration chunk carries the epoch it was
	// planned under and the backend refuses a mismatch with
	// cluster.ErrWrongEpoch, so a sender never mistakes dropped copies for
	// delivered ones; a store-only read answers from the member's own
	// shard, because the receiver's ring may disagree with the sender's
	// mid-membership-change and re-routing there is how forwarding cycles
	// start. A cluster with no shard of its own refuses both.
	ApplyLocal(ops []cluster.Op, migration bool, epoch uint64) error
	GetLocal(key []byte) ([]byte, bool, error)
	// HandleGossip is the anti-entropy exchange OpGossip carries; a
	// static cluster answers it with an error.
	HandleGossip(payload []byte) ([]byte, error)
	// ViewEpoch and EncodedView back the wire-level epoch fence: requests
	// stamped with a view epoch (opFlagEpoch) are checked against
	// ViewEpoch before admission, and stale ones bounce with the fresh
	// encoded view instead of being misrouted against an ownership map
	// the client no longer has.
	ViewEpoch() uint64
	EncodedView() []byte
}

// TaskHost is the analytics task plane a Server optionally fronts (the
// per-node executor in internal/analytics implements it). Specs and
// partition payloads are opaque bytes: the transport frames and chunks
// them but never interprets them, so the engine's job encoding can
// evolve without wire changes. SubmitTask must return quickly — task
// execution happens on the host's own workers, not under the server's
// admission permit, which only covers the submit/status/fetch exchanges
// themselves.
type TaskHost interface {
	// SubmitTask registers and starts one task, returning the
	// host-local task id the status and fetch calls use.
	SubmitTask(spec []byte) (uint64, error)
	// TaskStatus reports whether the task finished; err carries a
	// finished task's execution failure (nil while running). An unknown
	// id is also reported through err — to a coordinator, a task its
	// executor no longer knows (restart, expiry) is a failed task.
	TaskStatus(id uint64) (done bool, err error)
	// ShuffleFetch returns one of a completed task's output partitions
	// (the server pages it across frames as needed).
	ShuffleFetch(id uint64, part uint32) ([]byte, error)
}

// errNoTaskHost answers task-plane opcodes on a server with no executor.
var errNoTaskHost = errors.New("transport: server hosts no task executor")

// batchScratch is the pooled per-request decode/execute scratch for
// OpBatch and OpMirror: the decoded ops (aliasing the request frame) and
// the result slots. Released through putBatch after the response frame
// is encoded.
type batchScratch struct {
	ops []cluster.Op
	res []cluster.OpResult
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// putBatch recycles a batch scratch after clearing the first n slots of
// its ops and results, the ones the request wrote: decoded ops alias the
// request frame (an oversize, unpooled one included) and result values
// alias engine records, so a pooled slot would keep either reachable for
// as long as the scratch sits unused. Clearing only what was written
// keeps the cost proportional to the request rather than to the largest
// batch the scratch ever held. A failed decode wrote an unknown prefix,
// so its caller passes cap(sc.ops).
func putBatch(sc *batchScratch, n int) {
	clear(sc.ops[:n])
	clear(sc.res[:min(n, cap(sc.res))])
	batchPool.Put(sc)
}

// entriesPool recycles scan result buffers ([]engine.Entry headers; the
// entries' bytes are engine-owned) across OpScan dispatches.
var entriesPool sync.Pool

// putEntries recycles a scan buffer after clearing the entries the scan
// left in it: they alias engine records, and a pooled entry would keep
// a superseded record reachable for as long as the slot sits unused.
func putEntries(eb *[]engine.Entry, entries []engine.Entry) {
	clear(entries)
	*eb = entries[:0]
	entriesPool.Put(eb)
}

// ServerOptions tunes a Server. The zero value uses the defaults.
type ServerOptions struct {
	// Tasks, when non-nil, serves the analytics task plane (OpTaskSubmit
	// / OpTaskStatus / OpShuffleFetch) alongside the KV data plane.
	Tasks TaskHost
	// SlowRequest, when positive, records every request whose service
	// time (admission wait + dispatch) reaches it into the slow-request
	// log (Server.SlowLog), traced or not.
	SlowRequest time.Duration
	// TraceBuffer sizes the span and slow-request rings (default
	// DefaultTraceBuffer spans each).
	TraceBuffer int
	// Spans, when non-nil, is the span ring to record into instead of a
	// private one. A daemon that hosts both a server and a cluster
	// coordinator points both at one ring, so OpTraceFetch serves every
	// hop the process recorded regardless of which layer recorded it.
	Spans *obs.SpanLog
	// Metrics, when non-nil, is the registry OpMetricsFetch snapshots —
	// point it at the daemon's full registry (server + cluster + engine
	// series) so the federation sees everything the node's /metrics
	// page would show. Nil serves empty snapshots, not errors.
	Metrics *obs.Registry
	// Events, when non-nil, is the cluster event log OpEventsFetch
	// serves. Nil serves empty event sets.
	Events *obs.EventLog
}

// DefaultTraceBuffer is the span-ring capacity a server records into
// unless ServerOptions.TraceBuffer says otherwise.
const DefaultTraceBuffer = 256

const (
	// maxInFlight bounds concurrently executing requests across all
	// connections. Requests beyond the bound are answered immediately
	// with an overload frame — the wire form of the cluster's admission
	// control, surfacing as cluster.ErrOverload at the client.
	maxInFlight = 256
	// writeTimeout bounds each response write. A client that stops
	// reading its responses trips it, breaking that connection instead of
	// parking request goroutines — and the admission permits they hold —
	// behind a full TCP buffer forever.
	writeTimeout = 30 * time.Second
	// pageBudget is the payload a paged or shed response (scan page,
	// shuffle chunk, fetch set) may fill: the frame limit less the header
	// and a margin for the page's own framing.
	pageBudget = DefaultMaxFrame - frameOverhead - 64
)

func (o *ServerOptions) normalize() {
	if o.TraceBuffer <= 0 {
		o.TraceBuffer = DefaultTraceBuffer
	}
}

// serverMetrics is the server's always-on instrumentation. Every field
// is a plain atomic recorded inline on the request path; registries
// adopt them at scrape time (RegisterMetrics), so serving is identical
// whether or not anything scrapes.
type serverMetrics struct {
	reqs     [len(opTable)]obs.Counter   // per request opcode
	opLat    [len(opTable)]obs.Histogram // per request opcode service time
	bytesIn  obs.Counter
	bytesOut obs.Counter
	traced   obs.Counter // requests that carried a trace id
	lat      obs.Histogram
}

// Server hosts a Backend on a TCP listener. Each connection gets a read
// goroutine (decode + dispatch) and a write goroutine (respond), so many
// requests from one connection execute concurrently and responses return
// in completion order — the pipelining the wire ids exist for.
type Server struct {
	ln      net.Listener
	backend Backend
	opts    ServerOptions

	tokens chan struct{} // in-flight admission permits

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg     sync.WaitGroup // accept loop + connection handlers
	served atomic.Uint64  // requests admitted and executed
	shed   atomic.Uint64  // requests refused by admission control

	metrics serverMetrics
	spans   *obs.SpanLog // hops of traced requests
	slow    *obs.SpanLog // requests at or over SlowRequest
}

// Listen binds addr and serves b until Close.
func Listen(addr string, b Backend, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, b, opts), nil
}

// Serve runs a server on an existing listener until Close.
func Serve(ln net.Listener, b Backend, opts ServerOptions) *Server {
	opts.normalize()
	s := &Server{
		ln:      ln,
		backend: b,
		opts:    opts,
		tokens:  make(chan struct{}, maxInFlight),
		conns:   map[net.Conn]struct{}{},
		spans:   opts.Spans,
		slow:    obs.NewSpanLog(opts.TraceBuffer),
	}
	if s.spans == nil {
		// Private ring: name it after the listener so fetched spans
		// identify this process. A shared ring (opts.Spans) is named by
		// whoever owns it.
		s.spans = obs.NewSpanLog(opts.TraceBuffer)
		s.spans.SetNode(ln.Addr().String())
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Served returns the number of requests admitted and executed.
func (s *Server) Served() uint64 { return s.served.Load() }

// Shed returns the number of requests refused by admission control.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// Spans returns the ring of span records from traced requests.
func (s *Server) Spans() *obs.SpanLog { return s.spans }

// SlowLog returns the ring of requests that met ServerOptions.SlowRequest.
func (s *Server) SlowLog() *obs.SpanLog { return s.slow }

// RequestLatency returns the server's request-latency histogram — the
// series SLO objectives layer over.
func (s *Server) RequestLatency() *obs.Histogram { return &s.metrics.lat }

// RegisterMetrics exports the server's counters into r under the
// bd_transport_* families (DESIGN.md §11). Call once per server per
// registry, at setup.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	for op, info := range opTable {
		if info.name == "" {
			continue
		}
		r.CounterFunc("bd_transport_requests_total", "Requests received, by opcode.",
			obs.Labels{"op": info.name}, s.metrics.reqs[op].Value)
		r.RegisterHistogram("bd_transport_op_seconds",
			"Request service time by opcode: admission wait plus dispatch.",
			obs.Labels{"op": info.name}, &s.metrics.opLat[op])
	}
	r.CounterFunc("bd_transport_bytes_total", "Wire bytes moved, by direction.",
		obs.Labels{"dir": "in"}, s.metrics.bytesIn.Value)
	r.CounterFunc("bd_transport_bytes_total", "Wire bytes moved, by direction.",
		obs.Labels{"dir": "out"}, s.metrics.bytesOut.Value)
	r.CounterFunc("bd_transport_served_total", "Requests admitted and executed.", nil, s.served.Load)
	r.CounterFunc("bd_transport_shed_total", "Requests refused by admission control.", nil, s.shed.Load)
	r.CounterFunc("bd_transport_traced_requests_total", "Requests that carried a trace id.",
		nil, s.metrics.traced.Value)
	r.CounterFunc("bd_transport_slow_requests_total", "Requests at or over the slow-request threshold.",
		nil, s.slow.Total)
	r.GaugeFunc("bd_transport_inflight", "Requests currently holding an admission permit.",
		nil, func() float64 { return float64(len(s.tokens)) })
	r.RegisterHistogram("bd_transport_request_seconds",
		"Request service time: admission wait plus dispatch.", nil, &s.metrics.lat)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// connState is the per-connection dispatch context: the response queue
// and the in-flight request group, bundled so request goroutines spawn
// as a plain method call (`go cs.serveReq(...)`). That launch still
// allocates once per request: the compiler wraps a go statement's call
// and arguments in a closure that escapes to the heap (measured on
// go1.24).
type connState struct {
	s    *Server
	out  chan *frame
	reqs sync.WaitGroup
}

// traceCtx is one request's trace context, passed by value down the
// dispatch path (no per-request allocation). All-zero for untraced
// requests: span is this hop's freshly minted span id (forwarded to
// downstream hops as their parent), parent the upstream hop's.
type traceCtx struct {
	trace  uint64
	parent uint64
	span   uint64
}

// serveReq executes one admitted request. Frame ownership (DESIGN.md
// §12): pf — the pooled request frame payload aliases — is released as
// soon as dispatch returns, because every retention path below dispatch
// copies (the engine copies keys/values on apply, the hint buffer copies
// on enqueue, error messages copy into strings). The response frame's
// ownership passes to the writer goroutine via out.
func (cs *connState) serveReq(id uint64, tc traceCtx, op Opcode, pf *frame, payload []byte, start time.Time) {
	s := cs.s
	n := len(payload)
	// admitted marks the end of the queue-wait phase (time parked on the
	// admission permit, plus goroutine handoff). Only traced or
	// slow-logged requests pay the extra clock read.
	var admitted time.Time
	if tc.trace != 0 || s.opts.SlowRequest > 0 {
		admitted = time.Now()
	}
	resp := s.dispatch(id, tc, op, payload)
	putFrame(pf)
	// Account before responding: once a traced call has its answer, this
	// hop's span is already in the ring — a caller that collects spans
	// right after (one mirror RPC is the last a replica sees of a
	// replicated batch) never outruns the record.
	s.observe(op, tc, start, admitted, n)
	cs.out <- resp
	s.served.Add(1)
	<-s.tokens
	cs.reqs.Done()
}

// errFrame builds a complete RespError frame for err in a pooled buffer.
func errFrame(id uint64, err error) *frame {
	code, msg := errorCode(err)
	f := getFrame(frameOverhead + 4 + 1 + len(msg))
	f.b = beginResponse(f.b[:0], id, RespError)
	f.b = append(f.b, code)
	f.b = append(f.b, msg...)
	f.b = finishFrame(f.b)
	return f
}

// okFrame builds a complete payload-less RespOK frame.
func okFrame(id uint64) *frame {
	f := getFrame(frameOverhead + 4)
	f.b = finishFrame(beginResponse(f.b[:0], id, RespOK))
	return f
}

// ackFrame answers a write: RespOK, or the error frame for a non-nil err.
func ackFrame(id uint64, err error) *frame {
	if err != nil {
		return errFrame(id, err)
	}
	return okFrame(id)
}

// valueFrame builds a RespValue frame, the engine's value appended
// straight into the pooled buffer.
func valueFrame(id uint64, v []byte, ok bool) *frame {
	f := getFrame(frameOverhead + 4 + 1 + len(v))
	f.b = beginResponse(f.b[:0], id, RespValue)
	f.b = finishFrame(EncodeValue(f.b, v, ok))
	return f
}

// viewFrame builds a RespView frame carrying an encoded cluster view
// (empty when the peer is already in sync).
func viewFrame(id uint64, view []byte) *frame {
	f := getFrame(frameOverhead + 4 + len(view))
	f.b = beginResponse(f.b[:0], id, RespView)
	f.b = append(f.b, view...)
	f.b = finishFrame(f.b)
	return f
}

// handle runs one connection: the read loop decodes and dispatches
// frames; a writer goroutine serializes response frames back out. On
// read loop exit (peer hangup or drain kick), in-flight requests finish,
// their responses flush, and only then does the connection close — a
// connection never drops admitted work.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	cs := &connState{s: s, out: make(chan *frame, 64)}
	out := cs.out
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		broken := false
		for f := range out {
			if broken {
				putFrame(f)
				continue // keep draining so request goroutines never block
			}
			s.metrics.bytesOut.Add(uint64(len(f.b)))
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := bw.Write(f.b)
			putFrame(f) // bufio copied the bytes; the frame is free
			if err != nil {
				broken = true
				continue
			}
			// Flush when no more responses are queued: batches of
			// pipelined responses coalesce into fewer syscalls.
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					broken = true
				}
			}
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		bw.Flush()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		id, op, pf, err := readPooledFrame(br, DefaultMaxFrame)
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge) {
				// The stream is unrecoverable (framing lost), but tell
				// the peer why before hanging up.
				out <- errFrame(id, err)
			}
			break
		}
		start := time.Now()
		s.metrics.bytesIn.Add(uint64(13 + len(pf.b)))
		var tc traceCtx
		var payload []byte
		var epoch uint64
		op, tc.trace, tc.parent, epoch, payload, err = splitExt(op, pf.b)
		if err != nil {
			// The frame itself parsed — only the extensions are short.
			// Fail the request, keep the connection.
			putFrame(pf)
			out <- errFrame(id, err)
			continue
		}
		// Epoch fence: a request stamped with a view epoch is checked
		// before admission. A stale router gets the fresh view back
		// (RespView) instead of an answer computed against an ownership
		// map it no longer holds — the client re-plans and retries.
		if epoch != 0 && s.backend.ViewEpoch() != epoch {
			putFrame(pf)
			out <- viewFrame(id, s.backend.EncodedView())
			continue
		}
		if int(op) < len(s.metrics.reqs) {
			s.metrics.reqs[op].Inc()
		}
		if tc.trace != 0 {
			s.metrics.traced.Inc()
			tc.span = obs.NewSpanID()
		}
		// Liveness answers straight from the read loop, bypassing
		// admission: an overloaded server is still alive, and a prober
		// that can be shed would convert every overload into a false
		// death verdict.
		if op == OpPing {
			putFrame(pf)
			out <- okFrame(id)
			continue
		}
		// Membership gossip also bypasses admission: an overloaded server
		// that sheds its view exchanges can never converge, and
		// convergence is exactly what matters when the cluster is busy
		// enough to shed. It must NOT run on the read loop, though: a
		// merge that changes the view takes the cluster's write lock,
		// which can wait behind in-flight requests pinning the old view
		// across their own remote sub-calls. Parking the read loop there
		// stalls every response on this connection — including the epoch
		// bounces those very sub-calls may be waiting for — which welds
		// two busy members into a distributed deadlock broken only by
		// timeouts. A goroutine per exchange keeps the loop draining;
		// probers send a handful of exchanges per second, so the fan-out
		// is trivial.
		if op == OpGossip {
			cs.reqs.Add(1)
			go func(id uint64, payload []byte, pf *frame) {
				defer cs.reqs.Done()
				merged, gerr := s.backend.HandleGossip(payload)
				putFrame(pf)
				if gerr != nil {
					out <- errFrame(id, gerr)
				} else {
					out <- viewFrame(id, merged)
				}
			}(id, payload, pf)
			continue
		}
		// Admission: a backpressure batch (Apply) must never shed — it
		// blocks the connection's read loop for a permit instead, which
		// is honest backpressure (TCP pushes back to the sender) and
		// matches cluster.Apply's block-don't-shed contract. Everything
		// else sheds with an overload frame when the server is full.
		if op == OpBatch && len(payload) > 0 && payload[0]&batchFlagTry == 0 {
			s.tokens <- struct{}{}
		} else {
			select {
			case s.tokens <- struct{}{}:
			default:
				s.shed.Add(1)
				putFrame(pf)
				out <- errFrame(id, cluster.ErrOverload)
				continue
			}
		}
		cs.reqs.Add(1)
		go cs.serveReq(id, tc, op, pf, payload, start)
	}
	cs.reqs.Wait()
	close(out)
	<-writerDone
	conn.Close()
}

// observe finishes one request's accounting: latency histogram always,
// a span record when the request was traced, a slow-log record when it
// met the configured threshold. Untraced fast requests never touch a
// span log, so the hot path stays three atomic adds and two clock reads.
// admitted (when set) splits the span into queue-wait and exec phases.
func (s *Server) observe(op Opcode, tc traceCtx, start, admitted time.Time, bytes int) {
	dur := time.Since(start)
	s.metrics.lat.Observe(dur)
	if int(op) < len(s.metrics.opLat) {
		// Per-opcode latency feeds the federation's per-opcode p50/p99
		// (bdtop); three more atomic adds, still allocation-free.
		s.metrics.opLat[op].Observe(dur)
	}
	if tc.trace == 0 && (s.opts.SlowRequest <= 0 || dur < s.opts.SlowRequest) {
		return
	}
	span := obs.Span{
		Trace:  tc.trace,
		ID:     tc.span,
		Parent: tc.parent,
		Name:   "server/" + opName(op),
		Start:  start,
		Dur:    dur,
		Bytes:  bytes,
	}
	if !admitted.IsZero() {
		queue := admitted.Sub(start)
		if queue < 0 {
			queue = 0
		}
		if exec := dur - queue; exec >= 0 {
			span.Phases = []obs.Phase{
				{Name: "queue", Dur: queue},
				{Name: "exec", Dur: exec},
			}
		}
	}
	if tc.trace != 0 {
		s.spans.Record(span)
	}
	if s.opts.SlowRequest > 0 && dur >= s.opts.SlowRequest {
		s.slow.Record(span)
	}
}

// dispatch executes one decoded request against the backend and builds
// the response frame directly in a pooled buffer — engine values are
// appended straight into the frame the writer goroutine will hand to
// the bufio.Writer, with no intermediate payload slice. A nonzero trace
// is stamped onto batch ops (with this hop's span id as their parent),
// so a backend that is itself a cluster with remote members keeps
// propagating — and correctly parenting — the trace.
func (s *Server) dispatch(id uint64, tc traceCtx, op Opcode, payload []byte) *frame {
	switch op {
	case OpGet:
		v, ok := s.backend.Get(payload)
		return valueFrame(id, v, ok)
	case OpPut:
		key, value, err := DecodePut(payload)
		if err != nil {
			return errFrame(id, err)
		}
		if tc.trace != 0 {
			// Backend.Put has no trace parameter; a traced write detours
			// through the one-op batch path so the context reaches the
			// cluster's replication machinery (and the replicas' spans
			// parent onto this hop). Untraced writes keep the direct call.
			return ackFrame(id, s.applyTracedWrite(cluster.Op{
				Kind: cluster.OpPut, Key: key, Value: value,
				Trace: tc.trace, Parent: tc.span,
			}))
		}
		return ackFrame(id, s.backend.Put(key, value))
	case OpDelete:
		if tc.trace != 0 {
			return ackFrame(id, s.applyTracedWrite(cluster.Op{
				Kind: cluster.OpDelete, Key: payload,
				Trace: tc.trace, Parent: tc.span,
			}))
		}
		return ackFrame(id, s.backend.Delete(payload))
	case OpScan:
		start, limit, err := DecodeScan(payload)
		if err != nil {
			return errFrame(id, err)
		}
		// Scan into a pooled entry buffer. Entries alias engine records,
		// which encoding copies into the response frame; the buffer is
		// cleared before it is recycled (putEntries).
		eb, _ := entriesPool.Get().(*[]engine.Entry)
		if eb == nil {
			eb = new([]engine.Entry)
		}
		entries, err := s.backend.AppendScan((*eb)[:0], start, limit)
		if err != nil {
			// A degraded backend scan (lost keyrange coverage) fails the
			// request loudly: a silently short page would poison the
			// client's "short means exhausted" pagination contract.
			putEntries(eb, entries)
			return errFrame(id, err)
		}
		all := entries
		// Bound the response to what the peer will accept: a frame over
		// the limit would kill the connection (and every pipelined
		// request on it) instead of just shortening the page. A cut
		// page is flagged `more` so the client paginates the remainder
		// rather than mistaking it for end-of-range.
		more := false
		size := 5
		for i := range entries {
			size += 8 + len(entries[i].Key) + len(entries[i].Value)
			// Never truncate to zero: an empty page reads as
			// end-of-keyspace to paginating callers. A single entry
			// beyond the frame limit fails loudly at the client instead.
			if size > pageBudget && i > 0 {
				entries = entries[:i]
				more = true
				break
			}
		}
		f := getFrame(frameOverhead + 4 + encodedEntriesLen(entries))
		f.b = beginResponse(f.b[:0], id, RespEntries)
		f.b = finishFrame(EncodeEntries(f.b, entries, more))
		putEntries(eb, all)
		return f
	case OpBatch:
		sc := batchPool.Get().(*batchScratch)
		ops, try, err := DecodeBatchAppend(sc.ops[:0], payload)
		if err != nil {
			putBatch(sc, cap(sc.ops))
			return errFrame(id, err)
		}
		sc.ops = ops
		if tc.trace != 0 {
			for i := range ops {
				ops[i].Trace = tc.trace
				ops[i].Parent = tc.span
			}
		}
		for cap(sc.res) < len(ops) {
			sc.res = append(sc.res[:cap(sc.res)], cluster.OpResult{})
		}
		res := sc.res[:len(ops)]
		var aerr error
		if try {
			aerr = s.backend.TryApplyInto(ops, res)
		} else {
			aerr = s.backend.ApplyInto(ops, res)
		}
		// Results and the execution error travel together: TryApply
		// under overload still returns the accepted portion. Results are
		// positional, so an oversized set cannot be truncated like a
		// scan page — fail the batch loudly instead of emitting a frame
		// the peer will kill the connection over.
		_, msg := errorCode(aerr)
		size := encodedResultsLen(res, msg)
		if frameOverhead+size > DefaultMaxFrame {
			putBatch(sc, len(ops))
			return errFrame(id,
				fmt.Errorf("batch response of %d bytes exceeds the %d-byte frame limit; split the batch", frameOverhead+size, DefaultMaxFrame))
		}
		f := getFrame(frameOverhead + 4 + size)
		f.b = beginResponse(f.b[:0], id, RespResults)
		f.b = finishFrame(EncodeResults(f.b, res, aerr))
		putBatch(sc, len(ops))
		return f
	case OpTaskSubmit:
		if s.opts.Tasks == nil {
			return errFrame(id, errNoTaskHost)
		}
		taskID, err := s.opts.Tasks.SubmitTask(payload)
		if err != nil {
			return errFrame(id, err)
		}
		f := getFrame(frameOverhead + 4 + 8)
		f.b = beginResponse(f.b[:0], id, RespTask)
		f.b = finishFrame(EncodeTaskID(f.b, taskID))
		return f
	case OpTaskStatus:
		if s.opts.Tasks == nil {
			return errFrame(id, errNoTaskHost)
		}
		taskID, err := DecodeTaskID(payload)
		if err != nil {
			return errFrame(id, err)
		}
		done, taskErr := s.opts.Tasks.TaskStatus(taskID)
		_, msg := errorCode(taskErr)
		f := getFrame(frameOverhead + 4 + 2 + len(msg))
		f.b = beginResponse(f.b[:0], id, RespTaskStatus)
		f.b = finishFrame(EncodeTaskStatus(f.b, done, taskErr))
		return f
	case OpShuffleFetch:
		if s.opts.Tasks == nil {
			return errFrame(id, errNoTaskHost)
		}
		taskID, part, offset, err := DecodeShuffleFetch(payload)
		if err != nil {
			return errFrame(id, err)
		}
		data, err := s.opts.Tasks.ShuffleFetch(taskID, part)
		if err != nil {
			return errFrame(id, err)
		}
		// Page the partition under the frame budget, like scan pages: the
		// client advances offset until a frame without `more` arrives.
		if int64(offset) > int64(len(data)) {
			offset = uint32(len(data))
		}
		chunk := data[offset:]
		more := false
		if len(chunk) > pageBudget {
			chunk = chunk[:pageBudget]
			more = true
		}
		f := getFrame(frameOverhead + 4 + 1 + len(chunk))
		f.b = beginResponse(f.b[:0], id, RespChunk)
		f.b = finishFrame(EncodeChunk(f.b, chunk, more))
		return f
	case OpMirror:
		sc := batchPool.Get().(*batchScratch)
		ops, migration, epoch, err := DecodeMirrorAppend(sc.ops[:0], payload)
		n := cap(sc.ops) // a failed decode wrote an unknown prefix
		if err == nil {
			sc.ops, n = ops, len(ops)
			err = s.backend.ApplyLocal(ops, migration, epoch)
		}
		putBatch(sc, n)
		return ackFrame(id, err)
	case OpGetLocal:
		v, ok, err := s.backend.GetLocal(payload)
		if err != nil {
			return errFrame(id, err)
		}
		return valueFrame(id, v, ok)
	case OpTraceFetch:
		tid, err := DecodeTaskID(payload)
		if err != nil {
			return errFrame(id, err)
		}
		return fetchFrame(id, RespSpans, s.spans.ByTrace(tid),
			func(spans []obs.Span) []byte { return EncodeSpans(nil, spans) })
	case OpMetricsFetch:
		// A snapshot walks every series once under the registry lock; a
		// server with no registry answers an empty snapshot.
		snap := &obs.RegistrySnapshot{Node: s.Addr()}
		if s.opts.Metrics != nil {
			snap = s.opts.Metrics.Capture(s.Addr())
		}
		return fetchFrame(id, RespMetrics, snap.Fams, func(fams []obs.FamilySnapshot) []byte {
			return obs.EncodeSnapshot(&obs.RegistrySnapshot{Node: snap.Node, Fams: fams})
		})
	case OpEventsFetch:
		return fetchFrame(id, RespEvents, s.opts.Events.Events(), obs.EncodeEvents) // nil log → empty set
	default:
		return errFrame(id, ErrMalformed)
	}
}

// fetchFrame answers a fetch opcode (trace, metrics, events) with items
// in oldest-first order. Rather than build a frame the peer would drop
// the connection over, the oldest items are shed until the encoding
// fits: the trace assembler reads a shed span as a missing hop, the
// timeline keeps its newest events, and a federation merge counts a
// shed metric family as absent on this node. The fetch plane is a cold
// path, so items are encoded once and copied into the frame.
func fetchFrame[T any](id uint64, resp Opcode, items []T, encode func([]T) []byte) *frame {
	enc := encode(items)
	for len(enc) > pageBudget && len(items) > 0 {
		items = items[1:]
		enc = encode(items)
	}
	f := getFrame(frameOverhead + 4 + len(enc))
	f.b = beginResponse(f.b[:0], id, resp)
	f.b = finishFrame(append(f.b, enc...))
	return f
}

// applyTracedWrite routes one traced single-key write through the batch
// path, which is the only backend surface that carries trace context.
// Only traced requests take this detour, so the untraced hot path keeps
// the direct Put/Delete calls.
func (s *Server) applyTracedWrite(op cluster.Op) error {
	ops := [1]cluster.Op{op}
	var res [1]cluster.OpResult
	return s.backend.ApplyInto(ops[:], res[:])
}

// Close drains the server gracefully: stop accepting, kick every
// connection's read loop, let admitted requests finish and their
// responses flush, then close the connections. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		// An immediate read deadline unblocks the read loop; in-flight
		// work still completes because writes carry no deadline.
		c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return err
}
