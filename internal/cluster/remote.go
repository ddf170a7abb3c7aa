package cluster

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Remote is the coordinator-side contract for a shard that lives in
// another process, reached over some transport (internal/transport's
// pipelined TCP client implements it). The methods mirror the member
// operations; where the in-process path touches the engine directly,
// a Remote pays a network round trip instead. Implementations must be
// safe for concurrent use — the coordinator pipelines sub-batches from
// many clients onto one Remote.
type Remote interface {
	// Ping is the liveness probe: nil means the remote answered the
	// health opcode. Implementations should fail fast (bounded by a
	// probe timeout well under the data-path timeout) so a prober
	// sweeping dead members does not stall.
	Ping() error
	// Get serves a point read from the remote shard.
	Get(key []byte) ([]byte, bool, error)
	// AppendScan appends to dst up to limit entries with key >= start
	// from a consistent snapshot of the remote shard (the result of a
	// failed call is ignored). Appended entries are the caller's to keep
	// and must not alias transport buffers the implementation recycles.
	AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error)
	// Apply executes a batch with backpressure; TryApply under admission
	// control — a shed batch surfaces ErrOverload, possibly alongside
	// the results of the accepted portion. Results come back positionally
	// with OpResult.Applied exactly as the remote set it: replicated
	// writes mirror on that bit. Apply also carries replica mirror
	// batches, hint replays and a membership change's copies and drops
	// (rebalance.go) to members that are not elastic peers.
	Apply(ops []Op) ([]OpResult, error)
	TryApply(ops []Op) ([]OpResult, error)
	// Close releases the proxy's resources (the remote server survives).
	Close() error
}

// tracedRemote is the optional trace-propagating extension of Remote.
// A transport that can carry a trace id in its frames (transport.Client
// does) implements it; the coordinator type-asserts once per member and
// uses the traced calls for any op with a nonzero Op.Trace. Keeping it
// a capability rather than widening Remote means existing Remote fakes
// and alternative transports stay valid — they just don't propagate
// traces.
type tracedRemote interface {
	ApplyTraced(trace, parent uint64, ops []Op) ([]OpResult, error)
	TryApplyTraced(trace, parent uint64, ops []Op) ([]OpResult, error)
}

// gossipRemote is the optional membership extension of Remote: one
// anti-entropy exchange — send our encoded view, receive the peer's
// merged view (nil when already in sync). transport.Client implements it
// with OpGossip frames.
type gossipRemote interface {
	Gossip(view []byte) ([]byte, error)
}

// epochStamper is the optional epoch-fencing extension of Remote: stamp
// every subsequent routed data-plane request with the given view epoch
// so the peer's server can bounce calls planned under a disagreeing
// ring (RespView + ErrWrongEpoch) before admitting them. Member-to-
// member forwards MUST be stamped: during an epoch transition two
// members briefly hold different rings, and an unfenced routed write
// re-forwarded by each side's own ring ping-pongs between them — every
// hop pinning an admission token and a topology read lock until both
// token pools drain and the read loops park. transport.Client
// implements it (SetEpoch).
type epochStamper interface {
	SetEpoch(epoch uint64)
}

// localRemote is the optional store-only extension of Remote: operate on
// the peer's own shard with no ring routing or replica fan-out on the
// far side. ApplyLocal lands a batch of writes, in order, in one round
// trip: replica mirror batches between elastic members (a routed write
// would re-replicate server-side, amplifying every mirror into a storm;
// ops carrying a trace id ride a traced frame) and chunks of migration
// copies (epoch carries the view they were planned under; the receiver
// refuses a mismatched frame with ErrWrongEpoch).
// GetLocal is the read twin: a fallback read has already resolved
// ownership on this side, and letting the peer re-route by its own —
// possibly disagreeing — ring builds forwarding cycles during membership
// changes. transport.Client implements both with OpMirror / OpGetLocal
// frames.
type localRemote interface {
	ApplyLocal(ops []Op, migration bool, epoch uint64) error
	GetLocal(key []byte) ([]byte, bool, error)
}

// AddRemote joins a remote shard to the ring and migrates exactly the
// entries whose owner set changed, like AddNode does for a local shard.
// It returns the ring id the coordinator assigned. The remote server is
// treated as one member regardless of how many cluster nodes it hosts
// internally. A non-nil error with a valid id reports an incomplete
// migration (see rebalanceLocked).
func (c *Cluster) AddRemote(r Remote) (int, MoveReport, error) {
	return c.join(func(id int) {
		c.nodes[id] = c.wrapRemote(id, r, false, "")
		// The first remote member starts the background health prober:
		// local nodes cannot fail, remote ones now can.
		c.startProberLocked()
	})
}

// wrapRemote builds the member for a shard in another process: the proxy
// with whatever optional capabilities r's transport has, under the
// coordinator's health state. localMirror marks a peer dialed through
// the elastic view at advertised address addr (see remoteMember); a
// static remote has neither. The caller registers the result.
func (c *Cluster) wrapRemote(id int, r Remote, localMirror bool, addr string) *memberState {
	rm := &remoteMember{id: id, r: r, spans: c.spans, localMirror: localMirror}
	rm.tr, _ = r.(tracedRemote)
	rm.gr, _ = r.(gossipRemote)
	rm.lr, _ = r.(localRemote)
	if localMirror {
		// Fence this connection from the first call: routed requests to an
		// elastic peer carry our epoch, so a ring disagreement bounces at the
		// peer's admission instead of being re-forwarded by its ring. A
		// static remote is its own cluster with its own epochs and is never
		// stamped.
		rm.es, _ = r.(epochStamper)
		rm.setEpoch(c.epoch.Load())
	}
	return c.wrapMember(rm, addr)
}

// remoteMember adapts a Remote to the member interface. Sub-batches
// complete asynchronously: submit launches the RPC in its own goroutine
// so batches bound for distinct members pipeline instead of serializing
// on round trips, and the enqueue path never blocks on the network.
type remoteMember struct {
	id int
	r  Remote
	tr tracedRemote // non-nil when r can carry trace ids
	gr gossipRemote // non-nil when r can exchange membership views
	lr localRemote  // non-nil when r can apply store-only writes
	es epochStamper // non-nil when r can stamp requests with a view epoch
	// localMirror marks members dialed through the elastic view: their
	// replica mirrors and hint replays travel as store-only applies
	// (ApplyLocal) instead of routed writes, because the peer is itself a
	// replicating coordinator and a routed write would fan out again.
	localMirror bool
	// spans, when non-nil, receives a "cluster/write" span for every
	// traced replicated sub-batch this proxy leads, splitting the hop
	// into exec (primary RPC) and replicate (mirror fan-out) phases.
	spans *obs.SpanLog

	// wmu serializes replicated sub-batches through this proxy, mirroring
	// Node.wmu: every write for a key flows through its primary's proxy,
	// so holding wmu from the primary RPC to the last mirror ack keeps
	// replicas byte-identical to the primary.
	wmu sync.Mutex

	// transportErrs counts every RPC failure this proxy observed, plus
	// every mirror batch the member refused for any reason (a shed leg
	// is not a broken wire, but the copy still did not land). The void
	// paths (directGet misses, hinted mirrors) have nothing else to
	// report through; the counter surfaces in the member's
	// NodeStats.TransportErrs so silent misses are at least visible.
	transportErrs atomic.Uint64
}

func (m *remoteMember) memberID() int { return m.id }

// setEpoch restamps the peer connection with a newly committed view
// epoch (no-op for transports without the capability).
func (m *remoteMember) setEpoch(epoch uint64) {
	if m.es != nil {
		m.es.SetEpoch(epoch)
	}
}

func (m *remoteMember) ping() error { return m.r.Ping() }

func (m *remoteMember) directGet(key []byte) ([]byte, bool, error) {
	var (
		v   []byte
		ok  bool
		err error
	)
	if m.localMirror && m.lr != nil {
		// Elastic peers answer from their own store: this side already
		// resolved ownership, and a routed Get would re-resolve at the
		// peer — whose ring can disagree mid-membership-change, bouncing
		// the read back here in a cycle.
		v, ok, err = m.lr.GetLocal(key)
	} else {
		v, ok, err = m.r.Get(key)
	}
	if err != nil {
		if isTransportErr(err) {
			m.transportErrs.Add(1)
		}
		return nil, false, err
	}
	return v, ok, nil
}

// storeOnly sends one store-only batch (see localRemote). Transports
// without the capability take it as a routed blocking batch — a
// static coordinator owns the only ring, so nothing re-replicates.
func (m *remoteMember) storeOnly(ops []Op, migration bool, epoch uint64) error {
	if m.lr != nil {
		return m.lr.ApplyLocal(ops, migration, epoch)
	}
	_, err := m.r.Apply(ops)
	return err
}

// applyLocal pushes one chunk of migration copies (or any store-only
// batch) at the member's own store.
func (m *remoteMember) applyLocal(ops []Op, migration bool, epoch uint64) error {
	err := m.storeOnly(ops, migration, epoch)
	if isTransportErr(err) {
		m.transportErrs.Add(1)
	}
	return err
}

// mirrorBatch is one replica leg (or one chunk of hint replay): a
// store-only apply to an elastic peer, the blocking batch RPC to anyone
// else — traced when ops carry a trace id and the transport can forward
// it, so the replica hop shows up in the remote's span log under the
// same trace. Every failure is reported, and audited in TransportErrs
// whatever its kind, so the health layer hints the batch instead of
// losing the copy.
func (m *remoteMember) mirrorBatch(ops []Op) error {
	var err error
	if m.localMirror {
		err = m.storeOnly(ops, false, 0)
	} else {
		_, err = m.applyRPC(ops, false)
	}
	if err != nil {
		m.transportErrs.Add(1)
	}
	return err
}

func (m *remoteMember) snapshotScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	out, err := m.r.AppendScan(dst, start, limit)
	if err != nil {
		if isTransportErr(err) {
			m.transportErrs.Add(1)
		}
		return dst, err
	}
	return out, nil
}

func (m *remoteMember) submit(req *request) error {
	return m.dispatch(req, false)
}

func (m *remoteMember) trySubmit(req *request) error {
	return m.dispatch(req, true)
}

// applyRPC runs one sub-batch RPC, using the traced call when the run
// carries a trace id and the transport can forward it. The first
// nonzero trace in the run wins — the planner never mixes traces within
// one caller's batch, so in practice a run is all one trace or none.
func (m *remoteMember) applyRPC(ops []Op, try bool) ([]OpResult, error) {
	if m.tr != nil {
		if t, p := opsTrace(ops); t != 0 {
			if try {
				return m.tr.TryApplyTraced(t, p, ops)
			}
			return m.tr.ApplyTraced(t, p, ops)
		}
	}
	if try {
		return m.r.TryApply(ops)
	}
	return m.r.Apply(ops)
}

// isTransportErr reports whether err is a transport-level failure, as
// opposed to the remote executing fine and answering with one of the
// cluster's own sentinels (a shed TryApply is admission control working,
// a refused stale-epoch request is the membership protocol working —
// neither is a broken wire).
func isTransportErr(err error) bool {
	return err != nil && !errors.Is(err, ErrOverload) && !errors.Is(err, ErrClosed) &&
		!errors.Is(err, ErrWrongEpoch)
}

// dispatch launches one sub-batch against the remote; see execute.
func (m *remoteMember) dispatch(req *request, try bool) error {
	// The compiler wraps a go statement's call and its arguments in a
	// closure that escapes to the heap, so each launch costs one
	// allocation (measured on go1.24) — once per sub-batch on this path.
	go m.execute(req, try)
	return nil
}

// execute completes one sub-batch against the remote. A replica-free
// one is a single RPC and a positional result fill. A replicated one
// runs the pipeline of replicate.go under wmu: the whole sub-batch —
// reads included, so a read after a write in the same batch sees it —
// goes to the primary as one RPC, and the writes whose result came back
// Applied then go to each replica target as one mirror batch. A shed
// TryApply returns the applied portion's results beside ErrOverload, so
// exactly that portion mirrors; a transport error returns none, so
// nothing does, and the caller gets the error either way. The deferred
// Done is the last touch on req — it may be recycled the instant the
// coordinator's Wait unblocks.
func (m *remoteMember) execute(req *request, try bool) {
	defer req.done.Done()
	if !req.replicated {
		res, err := m.applyRPC(req.ops, try)
		m.fill(req, res, err)
		return
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	span := beginWriteSpan(m.spans, req)
	res, err := m.applyRPC(req.ops, try)
	m.fill(req, res, err)
	span.execDone()
	req.mirrorApplied()
	span.end(err)
}

// fill lands one RPC's outcome: positional results plus any failure,
// which also feeds the owning member's failure detector (request.fail).
func (m *remoteMember) fill(req *request, res []OpResult, err error) {
	if err != nil {
		if isTransportErr(err) {
			m.transportErrs.Add(1)
		}
		req.fail(err)
	} else if req.owner != nil {
		req.owner.noteSuccess()
	}
	// A shed batch may return fewer results than ops; a buggy remote
	// could return more. Fill only the overlap.
	for i := 0; i < len(res) && i < len(req.ops); i++ {
		req.results[req.idx[i]] = res[i]
	}
}

// stats reports what this process knows about the remote member: its
// id and the RPC failures the proxy observed. The member's own counters
// live in its server's registry and reach a collector through the
// metrics federation (OpMetricsFetch), never through this call.
func (m *remoteMember) stats() NodeStats {
	return NodeStats{ID: m.id, TransportErrs: m.transportErrs.Load()}
}

// addEngineStats accumulates src's counters into dst.
func addEngineStats(dst *engine.Stats, src engine.Stats) {
	dst.Puts += src.Puts
	dst.Gets += src.Gets
	dst.Deletes += src.Deletes
	dst.Scans += src.Scans
	dst.ScannedEntries += src.ScannedEntries
	dst.Flushes += src.Flushes
	dst.Compactions += src.Compactions
	dst.BloomNegative += src.BloomNegative
	dst.RunsProbed += src.RunsProbed
	dst.WALBytes += src.WALBytes
	dst.BlockCacheHits += src.BlockCacheHits
	dst.BlockCacheMisses += src.BlockCacheMisses
	dst.RunBytes += src.RunBytes
}

func (m *remoteMember) close() {
	_ = m.r.Close()
}
