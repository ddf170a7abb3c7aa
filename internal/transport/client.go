package transport

import (
	"bufio"
	"bytes"
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

// Client errors.
var (
	// ErrTimeout reports a request that outlived its deadline.
	ErrTimeout = errors.New("transport: request timed out")
	// ErrClientClosed reports use of a closed client.
	ErrClientClosed = errors.New("transport: client closed")
)

// ClientOptions tunes a Client. The zero value uses the defaults.
type ClientOptions struct {
	// Conns sizes the connection pool (default 1). Requests spread
	// round-robin; each connection pipelines every request issued on it
	// concurrently, matched back by frame id.
	Conns int
	// Timeout bounds one request round trip (default 10s).
	Timeout time.Duration
	// DialTimeout bounds the whole connect phase including retries
	// (default 5s). Dial keeps retrying inside the window so a client
	// can start before its server finishes binding.
	DialTimeout time.Duration
	// RetryOverload is how many times the blocking ops (Get, Put,
	// Delete, Scan, Apply) retry after cluster.ErrOverload, with
	// doubling backoff (default 3). TryApply never retries — its callers
	// want the shed signal. Negative disables retries: a caller then
	// sees every shed, and TestGoldenFrames records exactly one exchange
	// per step.
	RetryOverload int
	// PingTimeout bounds one Ping round trip including any redial
	// (default 1s). Pings fail fast by design: a prober sweeping dead
	// members must not stall for DialTimeout on each.
	PingTimeout time.Duration
	// Spans, when non-nil, receives a root span for every traced call
	// this client issues — the client-side end of the per-hop records
	// the servers keep. Untraced calls never touch it.
	Spans *obs.SpanLog
	// OnView, when non-nil, receives the encoded cluster view a server
	// bounced a stale-epoch request with (RespView). The callback should
	// adopt it into whatever routes through this client (typically
	// cluster.AdoptEncodedView) and refresh SetEpoch — the bounced call
	// returns cluster.ErrWrongEpoch and its retry re-stamps the fresh
	// epoch. The view bytes are the callback's to keep. Each delivery
	// runs on its own goroutine, because the bounce surfaces inside a
	// coordinator request that may hold the very routing lock adoption
	// needs.
	OnView func(view []byte)
}

const (
	// retryBackoff is an overload retry's first sleep, doubling each
	// attempt.
	retryBackoff = time.Millisecond
	// retryBackoffMax caps the doubled per-attempt sleep, and the total
	// time spent sleeping across one op's retries never exceeds Timeout —
	// an overloaded server makes a request slow, not unboundedly slower
	// than the timeout the caller asked for.
	retryBackoffMax = 50 * time.Millisecond
)

func (o *ClientOptions) normalize() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryOverload < 0 {
		o.RetryOverload = 0
	} else if o.RetryOverload == 0 {
		o.RetryOverload = 3
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = time.Second
	}
}

// Client is a pooled, pipelined wire-protocol client. It implements
// cluster.Remote, so a connected client (see RemoteNode) can join a
// coordinator's ring directly. Safe for concurrent use; concurrent
// requests on one connection interleave on the wire and resolve by id.
// A pool slot whose connection dies is redialed lazily on next use, so
// one reset or server restart poisons nothing permanently.
type Client struct {
	opts   ClientOptions
	addr   string
	conns  []atomic.Pointer[clientConn]
	mu     sync.Mutex // serializes redials and Close
	next   atomic.Uint64
	closed atomic.Bool

	// epoch, when nonzero, is stamped on the requests opTable marks
	// epoch-stamped (Get, Put, Delete, Scan, Apply) so an elastic server
	// can fence calls routed under a stale membership view. Zero =
	// unstamped (legacy peers).
	epoch atomic.Uint64

	metrics clientMetrics
}

// SetEpoch sets the membership view epoch stamped on this client's
// data-plane requests. Callers refresh it from their cluster's view
// callback (cluster.Config.OnViewChange / ClientOptions.OnView).
func (c *Client) SetEpoch(e uint64) { c.epoch.Store(e) }

// clientMetrics is the client's always-on instrumentation, adopted into
// a registry by RegisterMetrics.
type clientMetrics struct {
	retries obs.Counter // overload retries (withRetry re-attempts)
	redials obs.Counter // pool slots revived after a dead connection
}

// RegisterMetrics exports the client's counters into r under the
// bd_transport_client_* families. labels distinguishes clients sharing
// one registry — typically obs.Labels{"peer": addr}.
func (c *Client) RegisterMetrics(r *obs.Registry, labels obs.Labels) {
	r.CounterFunc("bd_transport_client_retries_total",
		"Requests re-sent after an overload shed.", labels, c.metrics.retries.Value)
	r.CounterFunc("bd_transport_client_redials_total",
		"Pool connections redialed after a failure.", labels, c.metrics.redials.Value)
}

// Dial connects a client pool to a server address. It retries refused
// connections inside DialTimeout, so callers may race server startup.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts.normalize()
	c := &Client{opts: opts, addr: addr, conns: make([]atomic.Pointer[clientConn], opts.Conns)}
	deadline := time.Now().Add(opts.DialTimeout)
	for i := 0; i < opts.Conns; i++ {
		cc, err := dialConn(addr, deadline)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns[i].Store(cc)
	}
	return c, nil
}

func dialConn(addr string, deadline time.Time) (*clientConn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("transport: dial %s: deadline exceeded", addr)
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			cc := &clientConn{
				conn:    conn,
				bw:      bufio.NewWriterSize(conn, 64<<10),
				pending: map[uint64]*waiter{},
			}
			go cc.readLoop()
			return cc, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}

// response is one matched reply. When f is non-nil the payload aliases
// a pooled frame: the receiver must copy anything it retains, then call
// release.
type response struct {
	op      Opcode
	payload []byte
	f       *frame
	err     error // connection-level failure
}

// release returns the response's pooled frame, if any. Idempotent.
func (r *response) release() {
	if r.f != nil {
		putFrame(r.f)
		r.f = nil
		r.payload = nil
	}
}

// waiter is one pooled in-flight request slot. The channel is reused
// across requests; the abandon protocol in roundTripFrame guarantees it
// is empty whenever the waiter returns to the pool.
type waiter struct {
	ch chan response
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan response, 1)} }}

// timerPool recycles round-trip timeout timers. Stop/Reset without a
// drain is safe under the Go 1.23+ timer semantics this module requires.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// clientConn is one pooled connection: a locked writer and a read loop
// that resolves responses to waiters by frame id.
type clientConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer
	// writers counts round trips between "about to take wmu" and "wrote
	// the frame": the writer that decrements it to zero flushes for the
	// whole group, coalescing pipelined requests into one syscall.
	writers atomic.Int32

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*waiter
	err     error // sticky connection error
}

func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	for {
		id, op, f, err := readPooledFrame(br, DefaultMaxFrame)
		if err != nil {
			cc.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		cc.mu.Lock()
		w := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if w != nil {
			w.ch <- response{op: op, payload: f.b, f: f}
		} else {
			putFrame(f) // abandoned request (timeout): nobody will read it
		}
	}
}

// broken reports whether the connection has a sticky error.
func (cc *clientConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// fail marks the connection dead and resolves every waiter with err.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	pending := cc.pending
	cc.pending = map[uint64]*waiter{}
	cc.mu.Unlock()
	cc.conn.Close()
	for _, w := range pending {
		w.ch <- response{err: err}
	}
}

// abandon resolves a request whose caller is giving up (write error or
// timeout). If the waiter is still registered, removing it here means no
// one else will ever touch it and it can be pooled immediately. If it is
// gone, the remover (read loop or fail) removed it *before* sending, so
// a send is guaranteed — receive it, discard the late response, and only
// then pool the waiter. Without this ownership handshake a pooled waiter
// could deliver a stale response to its next user.
func (cc *clientConn) abandon(id uint64, w *waiter, err error) (response, error) {
	cc.mu.Lock()
	_, mine := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if !mine {
		r := <-w.ch
		r.release()
	}
	waiterPool.Put(w)
	return response{}, err
}

// roundTripFrame issues one complete request frame (as built by
// beginRequest/finishFrame; the id field is assigned and patched here)
// and waits for its response. Takes ownership of f — it is released as
// soon as the bytes reach the bufio.Writer. The returned response's
// payload aliases a pooled frame the caller must release.
func (cc *clientConn) roundTripFrame(op Opcode, f *frame, timeout time.Duration) (response, error) {
	id := cc.nextID.Add(1)
	patchFrameID(f.b, id)
	w := waiterPool.Get().(*waiter)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		waiterPool.Put(w)
		putFrame(f)
		return response{}, err
	}
	cc.pending[id] = w
	cc.mu.Unlock()

	// Group flush: every writer increments before queueing on wmu; the
	// one that decrements to zero flushes for everyone. At pipeline
	// depth > 1 the frames written while a flush-eligible writer held
	// the lock ride out in one syscall (writev-style batching); at
	// depth 1 every write flushes, exactly as before.
	cc.writers.Add(1)
	cc.wmu.Lock()
	_, werr := cc.bw.Write(f.b)
	if cc.writers.Add(-1) == 0 && werr == nil {
		werr = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	putFrame(f)
	if werr != nil {
		cc.fail(fmt.Errorf("transport: write: %w", werr))
		return cc.abandon(id, w, werr)
	}

	t := getTimer(timeout)
	select {
	case r := <-w.ch:
		putTimer(t)
		waiterPool.Put(w)
		if r.err != nil {
			return response{}, r.err
		}
		return r, nil
	case <-t.C:
		timerPool.Put(t) // fired: nothing to stop
		return cc.abandon(id, w, fmt.Errorf("%w (%s after %v)", ErrTimeout, opName(op), timeout))
	}
}

// callTrace is one client call's trace context. parent is the upstream
// span this call descends from (what the recorded span reports as its
// Parent); span is the call's own freshly minted id, which travels in
// the frame's parent field so the server's span parents onto this one.
// The zero value means untraced.
type callTrace struct {
	trace  uint64
	parent uint64
	span   uint64
	// epoch is the view epoch the request is stamped with (0 = none).
	epoch uint64
}

// newCallTrace mints the client-side span id for one traced call. Each
// retry attempt mints its own — every attempt is its own hop. A client
// with no span ring forwards the caller's span as the downstream parent
// instead: minting an id nobody records would leave a hole in the
// assembled chain where this hop should be.
func (c *Client) newCallTrace(trace, parent uint64) callTrace {
	ct := callTrace{trace: trace, parent: parent}
	if trace != 0 {
		if c.opts.Spans != nil {
			ct.span = obs.NewSpanID()
		} else {
			ct.span = parent
		}
	}
	return ct
}

// frameHeadLen is the wire size of a request frame before its payload:
// length prefix + header, plus the trace and epoch extensions when
// present.
func frameHeadLen(trace, epoch uint64) int {
	n := 4 + frameOverhead
	if trace != 0 {
		n += tracedExtLen
	}
	if epoch != 0 {
		n += epochExtLen
	}
	return n
}

// cloneEntries rebases every entry's key and value out of the wire
// buffer they alias and into one fresh arena, in place.
func cloneEntries(entries []engine.Entry) {
	total := 0
	for i := range entries {
		total += len(entries[i].Key) + len(entries[i].Value)
	}
	if total == 0 {
		return
	}
	arena := make([]byte, 0, total)
	for i := range entries {
		arena = append(arena, entries[i].Key...)
		entries[i].Key = arena[len(arena)-len(entries[i].Key) : len(arena) : len(arena)]
		arena = append(arena, entries[i].Value...)
		entries[i].Value = arena[len(arena)-len(entries[i].Value) : len(arena) : len(arena)]
	}
}

// pick selects the next pool connection round-robin, reviving the slot
// first — within the dial budget — if its connection has died.
func (c *Client) pick(dial time.Duration) (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	slot := int(c.next.Add(1)) % len(c.conns)
	cc := c.conns[slot].Load()
	if cc == nil || cc.broken() {
		return c.revive(slot, dial)
	}
	return cc, nil
}

// revive redials one pool slot within budget — health probes redial on a
// short leash while data ops keep the patient one. Serialized so
// concurrent callers on a dead connection produce one dial, not a
// stampede; losers reuse the winner's connection.
func (c *Client) revive(slot int, budget time.Duration) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if cc := c.conns[slot].Load(); cc != nil && !cc.broken() {
		return cc, nil // another caller already revived it
	}
	cc, err := dialConn(c.addr, time.Now().Add(budget))
	if err != nil {
		return nil, err
	}
	c.metrics.redials.Inc()
	c.conns[slot].Store(cc)
	return cc, nil
}

// Healthy reports whether at least one pool connection is currently
// established and unbroken. It never dials: this is the passive
// connection-health signal — Ping is the active one.
func (c *Client) Healthy() bool {
	if c.closed.Load() {
		return false
	}
	for i := range c.conns {
		if cc := c.conns[i].Load(); cc != nil && !cc.broken() {
			return true
		}
	}
	return false
}

// Ping round-trips the health opcode, redialing a broken slot within
// PingTimeout rather than DialTimeout. It never retries on overload —
// the server answers pings from the read loop without an admission
// permit, so a failure here means the wire or the process, not load.
func (c *Client) Ping() error {
	f := getFrame(frameHeadLen(0, 0))
	f.b = finishFrame(beginRequest(f.b[:0], OpPing, 0, 0))
	r, err := c.callFrame(callTrace{}, OpPing, f, 0, c.opts.PingTimeout, c.opts.PingTimeout)
	if err != nil {
		return err
	}
	defer r.release()
	if r.op != opTable[OpPing].resp {
		return ErrMalformed
	}
	return nil
}

// callFrame runs one round trip and maps error frames back to Go
// errors. f is a caller-built request frame (beginRequestExt +
// finishFrame with the same ct; the id is patched at send time) and
// callFrame takes ownership of it. dial bounds the redial of a dead pool
// slot and timeout the round trip. A nonzero ct.trace leaves a span in
// the configured span log; reqBytes is the payload size recorded on it.
// The returned response's payload aliases a pooled frame — the caller
// must copy whatever it retains, then release it.
func (c *Client) callFrame(ct callTrace, op Opcode, f *frame, reqBytes int, dial, timeout time.Duration) (response, error) {
	cc, err := c.pick(dial)
	if err != nil {
		putFrame(f)
		return response{}, err
	}
	var start time.Time
	if ct.trace != 0 && c.opts.Spans != nil {
		start = time.Now()
	}
	r, err := cc.roundTripFrame(op, f, timeout)
	if err == nil && r.op == RespError {
		var decodeErr error
		if err, decodeErr = DecodeError(r.payload); decodeErr != nil {
			err = decodeErr
		}
		r.release() // DecodeError copied the message into the error
		r = response{}
	}
	// A RespView to anything but a gossip exchange is the epoch fence
	// firing: the server refused a stale-stamped request and sent the
	// fresh view along. Hand the view to the adopter and surface
	// ErrWrongEpoch — withRetry re-stamps the refreshed epoch.
	if err == nil && r.op == RespView && op != OpGossip {
		if c.opts.OnView != nil && len(r.payload) > 0 {
			// Delivered on its own goroutine: the bounce fires inside a
			// coordinator request that may hold the routing lock the
			// adopter needs (Cluster.applyInto holds its view lock until
			// every sub-batch returns) — a synchronous callback would
			// deadlock. Out-of-order delivery is safe; view adoption
			// merges, so a stale view is a no-op.
			view := bytes.Clone(r.payload)
			go c.opts.OnView(view)
		}
		r.release()
		r = response{}
		err = cluster.ErrWrongEpoch
	}
	if !start.IsZero() {
		span := obs.Span{
			Trace:  ct.trace,
			ID:     ct.span,
			Parent: ct.parent,
			Name:   "client/" + opName(op),
			Peer:   c.addr,
			Start:  start,
			Dur:    time.Since(start),
			Bytes:  reqBytes,
		}
		if err != nil {
			span.Err = err.Error()
		}
		c.opts.Spans.Record(span)
	}
	if err != nil {
		return response{}, err
	}
	return r, nil
}

// withRetry runs fn, retrying on cluster.ErrOverload — and on
// cluster.ErrWrongEpoch, whose retry re-stamps the epoch the view
// bounce refreshed — with doubling backoff up to the configured attempt
// budget. The per-attempt sleep is capped at retryBackoffMax, and the
// loop stops retrying once the elapsed wall clock (round trips +
// sleeps) would exceed Timeout, so a caller sees at worst ~2x Timeout —
// the budget-consuming attempt that was already in flight plus one
// more — not attempts x Timeout.
func (c *Client) withRetry(fn func() error) error {
	backoff := retryBackoff
	start := time.Now()
	for attempt := 0; ; attempt++ {
		err := fn()
		retryable := errors.Is(err, cluster.ErrOverload) || errors.Is(err, cluster.ErrWrongEpoch)
		if err == nil || !retryable || attempt >= c.opts.RetryOverload {
			return err
		}
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
		if time.Since(start)+backoff > c.opts.Timeout {
			return err // retry budget exhausted: surface the overload
		}
		c.metrics.retries.Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// attempt runs one request/response exchange for op. encode appends the
// n-byte payload straight into a pooled, exactly-sized request frame
// (nil = no payload); the response must carry the opcode opTable
// declares for op; decode (nil = nothing to read) sees the payload
// while it still aliases the pooled response frame, so it copies
// whatever it keeps. Epoch-stamped ops pick up the client's current
// view epoch and a traced call mints its span id here, per attempt — a
// retry after a view bounce re-stamps the refreshed epoch, and every
// attempt is its own hop.
func (c *Client) attempt(op Opcode, trace, parent uint64, n int, encode func([]byte) []byte, decode func([]byte) error) error {
	ct := c.newCallTrace(trace, parent)
	if opTable[op].epoch {
		ct.epoch = c.epoch.Load()
	}
	f := getFrame(frameHeadLen(ct.trace, ct.epoch) + n)
	f.b = beginRequestExt(f.b[:0], op, ct.trace, ct.span, ct.epoch)
	if encode != nil {
		f.b = encode(f.b)
	}
	f.b = finishFrame(f.b)
	r, err := c.callFrame(ct, op, f, n, c.opts.DialTimeout, c.opts.Timeout)
	if err != nil {
		return err
	}
	defer r.release()
	if r.op != opTable[op].resp {
		return ErrMalformed
	}
	if decode == nil {
		return nil
	}
	return decode(r.payload)
}

// exchange is attempt under the retry policy (withRetry): every client
// op but TryApply goes through it.
func (c *Client) exchange(op Opcode, trace, parent uint64, n int, encode func([]byte) []byte, decode func([]byte) error) error {
	return c.withRetry(func() error { return c.attempt(op, trace, parent, n, encode, decode) })
}

// rawPayload is the encode step of ops whose payload is p verbatim.
func rawPayload(p []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, p...) }
}

// idPayload is the encode step of ops whose payload is one 8-byte id.
func idPayload(id uint64) func([]byte) []byte {
	return func(b []byte) []byte { return EncodeTaskID(b, id) }
}

// Get fetches one key from the remote shard.
func (c *Client) Get(key []byte) (value []byte, found bool, err error) {
	return c.getValue(OpGet, 0, 0, key)
}

// GetTraced is Get carrying distributed trace context (zero trace =
// untraced; parent is the calling hop's span id, 0 at the root).
func (c *Client) GetTraced(trace, parent uint64, key []byte) (value []byte, found bool, err error) {
	return c.getValue(OpGet, trace, parent, key)
}

// getValue is the key → RespValue exchange OpGet and OpGetLocal share.
func (c *Client) getValue(op Opcode, trace, parent uint64, key []byte) (value []byte, found bool, err error) {
	err = c.exchange(op, trace, parent, len(key), rawPayload(key), func(p []byte) (err error) {
		var v []byte
		v, found, err = DecodeValue(p)
		value = bytes.Clone(v) // v aliases the pooled frame
		return err
	})
	return value, found, err
}

// Put writes one key.
func (c *Client) Put(key, value []byte) error {
	return c.PutTraced(0, 0, key, value)
}

// PutTraced is Put carrying distributed trace context (zero trace =
// untraced; parent is the calling hop's span id, 0 at the root).
func (c *Client) PutTraced(trace, parent uint64, key, value []byte) error {
	return c.exchange(OpPut, trace, parent, 4+len(key)+len(value),
		func(b []byte) []byte { return EncodePut(b, key, value) }, nil)
}

// Delete removes one key.
func (c *Client) Delete(key []byte) error {
	return c.DeleteTraced(0, 0, key)
}

// DeleteTraced is Delete carrying distributed trace context.
func (c *Client) DeleteTraced(trace, parent uint64, key []byte) error {
	return c.exchange(OpDelete, trace, parent, len(key), rawPayload(key), nil)
}

// Scan returns up to limit entries with key >= start from the remote
// shard; see AppendScan.
func (c *Client) Scan(start []byte, limit int) ([]engine.Entry, error) {
	return c.AppendScan(nil, start, limit)
}

// AppendScan appends up to limit entries with key >= start from the
// remote shard to dst. Each page decodes straight into dst and is then
// rebased out of the pooled frame into one arena of its own, so the
// entries stay valid after the frame is recycled. Pages the server cut
// short for frame-size reasons are transparently continued, so a
// shorter-than-limit result always means the range is exhausted — the
// property the coordinator's k-way merge depends on. (Each continuation
// is its own server-side snapshot; a scan spanning pages can observe
// concurrent writes at page edges, like any paginated range read.) On
// error it returns dst as it was passed.
func (c *Client) AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	out := dst
	for got := 0; got < limit; got = len(out) - len(dst) {
		n := len(out)
		var more bool
		err := c.exchange(OpScan, 0, 0, 4+len(start),
			func(b []byte) []byte { return EncodeScan(b, start, limit-got) },
			func(p []byte) (err error) {
				var page []engine.Entry
				if page, more, err = DecodeEntriesAppend(out[:n], p); err == nil {
					out = page
					cloneEntries(out[n:]) // entries alias the pooled frame
				}
				return err
			})
		if err != nil {
			clear(out[len(dst):])
			return dst, err
		}
		if !more || len(out) == n {
			break
		}
		start = append(append([]byte(nil), out[len(out)-1].Key...), 0)
	}
	return out, nil
}

// Apply executes a batch on the remote with backpressure.
func (c *Client) Apply(ops []cluster.Op) (res []cluster.OpResult, err error) {
	return c.batch(0, 0, ops, false)
}

// ApplyTraced is Apply carrying distributed trace context. The trace
// and this call's span id ride the frame header (not the batch payload)
// and the server re-stamps them onto the decoded ops, so a multi-tier
// backend keeps propagating — and parenting — the trace.
func (c *Client) ApplyTraced(trace, parent uint64, ops []cluster.Op) (res []cluster.OpResult, err error) {
	return c.batch(trace, parent, ops, false)
}

// TryApply executes a batch under the remote's admission control. A shed
// batch returns cluster.ErrOverload, possibly with partial results; it
// is never retried here — propagating the shed signal is the point.
func (c *Client) TryApply(ops []cluster.Op) ([]cluster.OpResult, error) {
	return c.batch(0, 0, ops, true)
}

// TryApplyTraced is TryApply carrying distributed trace context.
func (c *Client) TryApplyTraced(trace, parent uint64, ops []cluster.Op) ([]cluster.OpResult, error) {
	return c.batch(trace, parent, ops, true)
}

func (c *Client) batch(trace, parent uint64, ops []cluster.Op, try bool) (res []cluster.OpResult, err error) {
	encode := func(b []byte) []byte { return EncodeBatch(b, ops, try) }
	decode := func(p []byte) error {
		var execErr, decodeErr error
		if res, execErr, decodeErr = DecodeResults(p); decodeErr != nil {
			return decodeErr
		}
		// Result values alias the pooled response frame; move them into one
		// arena so releasing the frame can't corrupt what the caller keeps.
		total := 0
		for i := range res {
			total += len(res[i].Value)
		}
		if total > 0 {
			arena := make([]byte, 0, total)
			for i := range res {
				if len(res[i].Value) > 0 {
					arena = append(arena, res[i].Value...)
					res[i].Value = arena[len(arena)-len(res[i].Value) : len(arena) : len(arena)]
				}
			}
		}
		return execErr
	}
	if try {
		err = c.attempt(OpBatch, trace, parent, encodedBatchLen(ops), encode, decode)
	} else {
		err = c.exchange(OpBatch, trace, parent, encodedBatchLen(ops), encode, decode)
	}
	return res, err
}

// Gossip round-trips one anti-entropy membership exchange: view is
// this side's encoded cluster view, and the reply is the peer's merged
// view — or nil when the peer found the digests already in agreement.
// Overload sheds are retried, though the server answers gossip from its
// read loop precisely so load cannot starve convergence.
func (c *Client) Gossip(view []byte) (merged []byte, err error) {
	err = c.exchange(OpGossip, 0, 0, len(view), rawPayload(view), func(p []byte) error {
		if len(p) > 0 {
			merged = bytes.Clone(p) // p aliases the pooled frame
		}
		return nil
	})
	return merged, err
}

// ApplyLocal lands a batch of store-only writes, in order, on the remote
// member in one round trip: no replica fan-out on the far side. Replica
// mirror batches and hint replays (migration=false) always apply, and
// ride a traced frame when the ops carry a trace id, so the replica's
// server span parents onto the hop that issued the mirror; chunks of
// migration copies (migration=true) carry the epoch they were planned
// under and come back as cluster.ErrWrongEpoch when the destination has
// moved on.
func (c *Client) ApplyLocal(ops []cluster.Op, migration bool, epoch uint64) error {
	var trace, parent uint64
	for i := range ops {
		if ops[i].Trace != 0 {
			trace, parent = ops[i].Trace, ops[i].Parent
			break
		}
	}
	return c.exchange(OpMirror, trace, parent, encodedMirrorLen(ops, migration),
		func(b []byte) []byte { return EncodeMirror(b, ops, migration, epoch) }, nil)
}

// GetLocal reads one key from the remote member's own store with no
// server-side routing — the read twin of ApplyLocal. Member-to-member
// reads (replica fallbacks, migration-lag reads) use it because the
// caller has already resolved ownership; letting the receiver re-route
// by a ring that may disagree mid-membership-change turns two members
// into a forwarding cycle. Unstamped: the answer comes from whatever the
// member holds, which is exactly what a fallback read wants regardless
// of epoch.
func (c *Client) GetLocal(key []byte) (value []byte, found bool, err error) {
	return c.getValue(OpGetLocal, 0, 0, key)
}

// SubmitTask submits an opaque analytics task spec to the remote
// executor and returns the executor-local task id. Overload sheds are
// retried like the data-plane ops — a shed submit never started a task,
// so the retry cannot duplicate work.
func (c *Client) SubmitTask(spec []byte) (id uint64, err error) {
	return c.SubmitTaskTraced(0, spec)
}

// SubmitTaskTraced is SubmitTask carrying a distributed trace id, so an
// analytics job's submits show up in each executor's span log under the
// job's one trace.
func (c *Client) SubmitTaskTraced(trace uint64, spec []byte) (id uint64, err error) {
	err = c.exchange(OpTaskSubmit, trace, 0, len(spec), rawPayload(spec), func(p []byte) (err error) {
		id, err = DecodeTaskID(p)
		return err
	})
	return id, err
}

// TaskStatus polls one task. taskErr is the remote task's execution
// failure (nil while running or on success); err reports the poll
// itself failing (wire down, unknown task).
func (c *Client) TaskStatus(id uint64) (done bool, taskErr, err error) {
	err = c.exchange(OpTaskStatus, 0, 0, 8, idPayload(id), func(p []byte) (err error) {
		done, taskErr, err = DecodeTaskStatus(p)
		return err
	})
	return done, taskErr, err
}

// ShuffleFetch pulls one completed task's output partition, paging
// through frame-sized chunks until the server reports the end.
func (c *Client) ShuffleFetch(task uint64, part uint32) ([]byte, error) {
	return c.ShuffleFetchTraced(0, task, part)
}

// ShuffleFetchTraced is ShuffleFetch carrying a distributed trace id,
// so a reduce task's cross-node fetches join the job's trace.
func (c *Client) ShuffleFetchTraced(trace, task uint64, part uint32) ([]byte, error) {
	var all []byte
	for more := true; more; {
		err := c.exchange(OpShuffleFetch, trace, 0, 16,
			func(b []byte) []byte { return EncodeShuffleFetch(b, task, part, uint32(len(all))) },
			func(p []byte) (err error) {
				var chunk []byte
				if chunk, more, err = DecodeChunk(p); err == nil {
					all = append(all, chunk...) // copies out of the pooled frame
				}
				return err
			})
		if err != nil {
			return nil, err
		}
	}
	return all, nil
}

// FetchSpans pulls every span the remote process retains for one trace
// id (OpTraceFetch) — the collector side of distributed trace assembly.
// A remote with nothing recorded returns an empty set, not an error.
// The fetch itself is untraced so collection never pollutes the trace
// it collects.
func (c *Client) FetchSpans(trace uint64) (spans []obs.Span, err error) {
	err = c.exchange(OpTraceFetch, 0, 0, 8, idPayload(trace), func(p []byte) (err error) {
		spans, err = DecodeSpans(p)
		return err
	})
	return spans, err
}

// FetchMetrics pulls the remote process's full registry snapshot
// (OpMetricsFetch) — exact histogram buckets and counters, not float
// summaries, so the federation can merge without rounding. The decode
// copies into fresh structs, so nothing aliases the pooled frame.
func (c *Client) FetchMetrics() (snap *obs.RegistrySnapshot, err error) {
	err = c.exchange(OpMetricsFetch, 0, 0, 0, nil, func(p []byte) (err error) {
		snap, err = obs.DecodeSnapshot(p)
		return err
	})
	return snap, err
}

// FetchEvents pulls the remote process's cluster event ring
// (OpEventsFetch), oldest first. A remote with no event log returns an
// empty timeline, not an error.
func (c *Client) FetchEvents() (events []obs.Event, err error) {
	err = c.exchange(OpEventsFetch, 0, 0, 0, nil, func(p []byte) (err error) {
		events, err = obs.DecodeEvents(p)
		return err
	})
	return events, err
}

// Close tears down the pool. In-flight requests resolve with a
// connection error.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock() // no redial can race the teardown
	defer c.mu.Unlock()
	for i := range c.conns {
		if cc := c.conns[i].Load(); cc != nil {
			cc.fail(ErrClientClosed)
		}
	}
	return nil
}
