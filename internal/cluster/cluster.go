package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Sizing every cluster shares. No deployment or workload runs at other
// values.
const (
	// virtualNodes is each member's point count on the hash ring.
	virtualNodes = 64
	// queueDepth bounds each node's request queue. A full queue sheds
	// TryApply traffic with ErrOverload.
	queueDepth = 128
	// maxBatch caps the ops of one sub-batch, one worker drain cycle, one
	// hint-replay round trip and one migration-push chunk.
	maxBatch = 32
	// workersPerNode sizes each node's worker pool.
	workersPerNode = 2
	// declareDeadAfter is how many consecutive probe sweeps a member
	// stays down before the lowest-id live member declares it Left and
	// the cluster heals around the loss.
	declareDeadAfter = 10
)

// Config sizes a Cluster.
type Config struct {
	// Shards is the initial node count (default 1).
	Shards int
	// Replication is R, the number of nodes holding each key (default 1;
	// clamped to the node count). Writes reach all R owners synchronously;
	// reads are served by the primary, so the primary always observes its
	// own writes.
	Replication int
	// ProbeInterval is the background health prober's period (default
	// 200ms; negative disables the prober — tests drive detection with
	// Probe). The prober starts lazily with the first remote member;
	// local nodes cannot fail.
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe or transport failures
	// mark a member down (default 3).
	ProbeFailures int
	// HintLimit bounds the hinted-handoff buffer per down member, in ops
	// (default 4096). A full buffer drops the oldest hint and counts it
	// in NodeStats.HintsDropped — convergence then needs a rebalance.
	HintLimit int
	// Engine is the per-shard storage-engine configuration (the CPU, if
	// any, is shared by every shard — the paper characterizes the whole
	// node). Zero fields take the engine defaults.
	Engine engine.Options
	// Spans, when non-nil, receives the coordinator-layer spans of every
	// traced op: "cluster/write" around each sub-batch of replicated
	// writes (exec + replicate phases), "cluster/hint" when a replica leg
	// defers to hinted handoff, "cluster/failover" when a write routes
	// around its down primary. Share one SpanLog between the transport
	// server and its cluster (transport.ServerOptions.Spans) so
	// OpTraceFetch serves every hop the process recorded. Nil disables
	// cluster-layer spans; untraced ops never touch the log either way.
	Spans *obs.SpanLog

	// SelfAddr, when non-empty, makes this cluster one elastic member: a
	// single local shard whose ring id derives from the advertised
	// address (MemberIDForAddr), participating in the epoch-versioned
	// membership protocol — gossip dissemination, live join/leave, and
	// throttled online migration. Elastic members ignore Shards.
	SelfAddr string
	// RouteOnly makes an elastic cluster a pure view-adopting router: it
	// holds no shard, publishes no membership row, and never mirrors
	// client-side (elastic members replicate server-side from the view's
	// R). Coordinators embedded in benchmark drivers use this.
	RouteOnly bool
	// Dial connects to a peer discovered through the view (by advertised
	// address). Required for elastic clusters; unused otherwise.
	Dial func(addr string) (Remote, error)
	// MigrateRate bounds background migration throughput in bytes/s
	// (default 8 MiB/s; negative disables the throttle).
	MigrateRate int
	// OnViewChange, when non-nil, is called (outside all cluster locks)
	// each time a new membership view commits. Edge-facing layers use it
	// to restamp client epochs.
	OnViewChange func(*ClusterView)
	// Events, when non-nil, receives typed lifecycle events: view
	// commits that advance the epoch, failure-detector transitions
	// (suspect/down/alive/declared-dead), failovers around a down
	// primary, hint replays and drops, and migration start/settle.
	// Point it at the same log the transport server exposes
	// (transport.ServerOptions.Events) so OpEventsFetch serves the
	// cluster's timeline. Nil disables event recording.
	Events *obs.EventLog
}

func (c *Config) normalize() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	// Replication is NOT clamped to the initial shard count: Owners
	// clamps per call to the live membership, so a cluster built small
	// and grown via AddNode reaches the requested R once enough members
	// exist.
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 200 * time.Millisecond
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 3
	}
	if c.HintLimit <= 0 {
		c.HintLimit = 4096
	}
	if c.MigrateRate == 0 {
		c.MigrateRate = 8 << 20
	}
}

// Cluster is the coordinator: it owns the ring and the shard members,
// routes point ops to primaries, scatter-gathers scans, and fans writes
// out to the replica set. Members are local *Nodes (AddNode / Config)
// or proxies for shards in other processes (AddRemote); the coordinator
// never distinguishes the two. Every member is wrapped in a memberState
// (health.go): transport failures and probe misses mark members down,
// reads and writes route around down members onto surviving replicas,
// and missed replica writes buffer as hinted handoff until recovery.
type Cluster struct {
	mu     sync.RWMutex // topology lock: ring + member map + view
	cfg    Config
	ring   *Ring // always view.Ring(): commitViewLocked is its only writer
	nodes  map[int]*memberState
	nextID int
	closed bool
	// spans is cfg.Spans, cached for the hot paths (nil = no tracing).
	spans *obs.SpanLog
	// events is cfg.Events (nil = no event recording; EventLog methods
	// are nil-safe, so emit sites carry no guards).
	events *obs.EventLog
	// migStartEpoch is the highest epoch a migration-start event was
	// recorded for, so retried copy passes log the start once.
	migStartEpoch atomic.Uint64

	// view is the current membership view, static cluster or elastic.
	// lastSettled is the most recent view every live member finished
	// migrating for — the ownership map acknowledged writes are guaranteed
	// to have reached, which reads consult while an epoch is in flight.
	view        *ClusterView
	lastSettled *ClusterView
	// epoch mirrors view.Epoch for lock-free per-request checks (the
	// transport server rejects stale-epoch requests before admission).
	epoch atomic.Uint64
	// encView caches view.Encode() at commit, so the transport read loop
	// can bounce a stale-epoch request without touching mu: a pending
	// view-adopt writer would otherwise park the read loop in the fence,
	// and a parked read loop answers nothing — including the bounces
	// other members' in-flight requests are waiting on, which is a
	// cross-member deadlock during the very membership changes the fence
	// exists for. Committed views are immutable, so one encode per commit
	// serves every bounce of that epoch.
	encView atomic.Pointer[[]byte]

	// selfID is this process's member id on the elastic ring, or -1 for
	// static clusters and route-only coordinators. selfInc is the
	// incarnation high-water of our own published membership row.
	selfID  int
	selfInc uint64
	leaving atomic.Bool

	// Migrator plumbing (elastic members only): commitViewLocked starts
	// the loop on the first unsettled view and kicks it on every commit.
	migStop chan struct{}
	migKick chan struct{}
	migDone chan struct{}
	// dropsDone is the highest epoch whose post-settle drop pass (deleting
	// keyranges this member no longer owns) has completed. Guarded by mu.
	dropsDone uint64

	proberStop chan struct{} // non-nil once the background prober runs

	// dialing single-flights ensureMembers' outside-the-lock dials: the
	// probe sweep and a concurrent adopt both see an undialed member, and
	// without this guard both would connect — addViewMember discards the
	// loser, stranding anyone (like a bench's peer tracker) who adopted
	// it as the member's canonical connection. Guarded by mu.
	dialing map[int]struct{}

	// Failover counters: requests the coordinator served around a failed
	// or down primary (writes led by a non-primary owner, reads answered
	// from a replica after the primary was down or errored). Surfaced by
	// RegisterMetrics as bd_cluster_failovers_total.
	readFailovers  atomic.Uint64
	writeFailovers atomic.Uint64

	// Membership/migration counters (RegisterMetrics surfaces these).
	viewChanges  atomic.Uint64
	gossipRounds atomic.Uint64
	migBytes     atomic.Uint64
	migKeys      atomic.Uint64
	migDropped   atomic.Uint64
}

// New builds and starts a cluster of cfg.Shards local nodes, or — when
// cfg.SelfAddr or cfg.RouteOnly is set — one elastic membership
// participant (see Config.SelfAddr).
func New(cfg Config) *Cluster {
	cfg.normalize()
	return newCluster(cfg)
}

// NewEmpty builds a coordinator with no members — a pure router for
// shards joined later with AddNode or AddRemote (e.g. a client-side
// coordinator whose shards all live behind transport servers). Until the
// first member joins, reads miss and batches return ErrNoNodes.
func NewEmpty(cfg Config) *Cluster {
	cfg.normalize()
	cfg.Shards = 0
	return newCluster(cfg)
}

// newCluster is the one constructor body: open the local shards the
// configuration calls for — cfg.Shards sequentially numbered ones, or an
// elastic member's single shard keyed by its advertised address, or none
// (NewEmpty, route-only coordinators) — and commit the first view over
// them, settled: there is no earlier layout to migrate from. A view with
// no rows is epoch 0; a route-only coordinator adopts whatever its seeds
// hold from there.
func newCluster(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg, nodes: map[int]*memberState{}, spans: cfg.Spans, events: cfg.Events, selfID: -1}
	var rows []MemberInfo
	switch {
	case cfg.RouteOnly: // no shard, no row
	case cfg.SelfAddr != "":
		c.selfID, c.selfInc = MemberIDForAddr(cfg.SelfAddr), 1
		c.addLocalLocked(c.selfID, cfg.SelfAddr)
		rows = []MemberInfo{{ID: c.selfID, Addr: cfg.SelfAddr, Incarnation: 1, Settled: 1}}
	default:
		for ; c.nextID < cfg.Shards; c.nextID++ {
			c.addLocalLocked(c.nextID, "")
			rows = append(rows, MemberInfo{ID: c.nextID, Incarnation: 1, Settled: 1})
		}
	}
	epoch := uint64(1)
	if len(rows) == 0 {
		epoch = 0
	}
	c.commitViewLocked(newView(epoch, cfg.Replication, virtualNodes, rows))
	if c.elastic() {
		if cfg.Dial == nil {
			panic("cluster: elastic configuration requires Config.Dial")
		}
		c.startProberLocked() // gossip rides the probe sweep
	}
	return c
}

// elastic reports whether this cluster participates in epoch-versioned
// membership (as a member or a route-only coordinator).
func (c *Cluster) elastic() bool {
	return c.cfg.SelfAddr != "" || c.cfg.RouteOnly
}

// frozenLocked reports that a static membership change stopped half way
// and writes must wait for its resolution (ErrUnsettled). An elastic
// member's unsettled view is its migrator at work beside traffic, guards
// armed; a static cluster's is a quiesced change that lost its lock.
// Caller holds mu.
func (c *Cluster) frozenLocked() bool {
	return !c.view.AllSettled() && !c.elastic()
}

// mirrorsLocked reports whether a write led by member lead takes its
// replica legs from this process. An elastic cluster mirrors only what
// its own shard leads: a write forwarded to a remote lead arrives there
// as a routed batch, and the lead replicates it server-side under its
// own (authoritative) view — a second, client-side leg from here would
// land every copy twice. A route-only coordinator leads nothing, so it
// never mirrors. Caller holds mu.
func (c *Cluster) mirrorsLocked(lead int) bool {
	return !c.elastic() || lead == c.selfID
}

// localNodeLocked returns this member's local shard, or nil for static
// clusters and route-only coordinators. Caller holds mu.
func (c *Cluster) localNodeLocked() *Node {
	if ms := c.nodes[c.selfID]; ms != nil {
		n, _ := ms.member.(*Node)
		return n
	}
	return nil
}

// addLocalLocked opens, starts and registers one in-process shard under
// id; its view row is the caller's to commit. Caller holds mu (or is the
// constructor).
func (c *Cluster) addLocalLocked(id int, addr string) {
	eng, _ := engine.Open(c.cfg.Engine) // the in-memory engine never fails to open
	n := newNode(id, eng, queueDepth, workersPerNode, maxBatch)
	n.spans = c.spans
	n.start()
	c.nodes[id] = c.wrapMember(n, addr)
}

// wrapMember layers the coordinator's failure-detection and hinted-
// handoff state over m, wired to the cluster's span and event logs.
func (c *Cluster) wrapMember(m member, addr string) *memberState {
	ms := newMemberState(m, c.cfg.ProbeFailures, c.cfg.HintLimit)
	ms.spans, ms.events, ms.addr = c.spans, c.events, addr
	return ms
}

// Nodes returns the current member count.
func (c *Cluster) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// owners resolves the replica set for key under the topology read lock
// already held by the caller. Entries may be nil on elastic clusters: a
// view member this process has learned of but not yet dialed routes like
// a down member until ensureMembers connects it.
func (c *Cluster) ownersLocked(key []byte) []*memberState {
	ids := c.ring.Owners(key, c.cfg.Replication)
	out := make([]*memberState, len(ids))
	for i, id := range ids {
		out[i] = c.nodes[id]
	}
	return out
}

// Get serves a point read from the key's first live owner. Because
// writes reach every live owner synchronously (and are led by the first
// live owner), a Get that follows a completed Put of the same key always
// observes it (read-your-writes), including while the primary is down.
// A miss at a primary that has ever been down falls back to the
// remaining replicas before answering "absent": a member that rejoined
// empty after losing its store (crashed process, wiped disk) then
// serves from a surviving copy instead of shadowing it. A never-failed
// primary's miss is final, so healthy clusters pay no extra reads.
//
// Get keeps the ([]byte, bool) shape, so a keyrange whose every owner
// is down reads as a miss here; callers that must distinguish an outage
// from an absent key use Apply (OpGet), which fails such batches with
// ErrAllOwnersDown.
// Lock discipline: Get (like every data-path method) never holds the
// topology lock across a remote call. A reader parked mid-RPC queues
// writers (view adoption), and Go's RWMutex then parks every new reader
// behind them — with two members each reading-while-calling the other,
// that welds a cross-process lock cycle only broken by client timeouts.
// Instead each step snapshots what it needs under a short RLock and
// calls with the lock released; memberState pointers stay valid after a
// view change (a departed member's calls just fail and fall through).
func (c *Cluster) Get(key []byte) ([]byte, bool) {
	c.mu.RLock()
	id := c.ring.Primary(key)
	if id < 0 {
		c.mu.RUnlock()
		return nil, false
	}
	// Fast path: a live primary that holds the key — one member touch on
	// the allocation-free Primary lookup.
	settled := c.view.AllSettled()
	m := c.nodes[id]
	c.mu.RUnlock()
	if m != nil && !m.isDown() {
		v, ok, err := m.directGet(key)
		if err == nil && ok {
			return v, true
		}
		if err == nil && settled && (c.cfg.Replication == 1 || !m.everDown.Load()) {
			return nil, false // a reliable owner answered: a genuine miss
		}
		if err != nil {
			c.readFailovers.Add(1)
			c.noteFailoverEvent("read", m)
		}
	} else {
		c.readFailovers.Add(1)
		c.noteFailoverEvent("read", m)
	}
	// Degraded path: the primary is down, failed the read, or missed
	// with a post-recovery history that makes its misses ambiguous —
	// consult the rest of the owner set before answering "absent".
	c.mu.RLock()
	owners := c.ownersLocked(key)
	// Migration in flight: the key may still live only at its owners
	// under the last fully settled view (the new owner's copy has not
	// landed yet), so consult them too before answering "absent".
	if !settled {
		for _, id := range c.lastSettled.Ring().Owners(key, c.cfg.Replication) {
			owners = append(owners, c.nodes[id])
		}
	}
	c.mu.RUnlock()
	for i, m := range owners {
		if i == 0 || m == nil || m.isDown() {
			continue // the primary was already consulted (or is down/undialed)
		}
		if v, ok, err := m.directGet(key); err == nil && ok {
			return v, true
		}
	}
	return nil, false
}

// Put writes through the first live owner to all R owners; down owners
// receive the write as hinted handoff. With every owner down (or an
// empty ring) the write fails with an explicit error rather than
// vanishing.
func (c *Cluster) Put(key, value []byte) error {
	return c.write(Op{Kind: OpPut, Key: key, Value: value})
}

// Delete removes the key from all R owners, hinting down ones.
func (c *Cluster) Delete(key []byte) error {
	return c.write(Op{Kind: OpDelete, Key: key})
}

// write runs one single-key write as a sub-batch of one, executed on the
// calling goroutine by the lead member — the same replication pipeline
// batches take (replicate.go), minus the queue hop. The lead is the
// key's first live owner; every other owner rides along as a mirror,
// down ones included: their memberState buffers the write as a hint
// instead of paying a doomed RPC. An elastic cluster mirrors only the
// writes its own shard leads (mirrorsLocked). Replica mirrors are not
// counted in NodeStats.Ops; they surface in the replica's engine stats
// instead.
func (c *Cluster) write(op Op) error {
	st := applyPool.Get().(*applyState)
	defer st.release()
	c.mu.RLock()
	if c.frozenLocked() {
		c.mu.RUnlock()
		return fmt.Errorf("cluster: write %q: %w", op.Key, ErrUnsettled)
	}
	st.owners = c.ring.AppendOwners(st.owners[:0], op.Key, c.cfg.Replication)
	var lead, primary *memberState
	for i, id := range st.owners {
		m := c.nodes[id] // nil: a view member not dialed yet routes like a down one
		if i == 0 {
			primary = m
		}
		if lead == nil && m != nil && !m.isDown() {
			lead = m
		} else if m != nil {
			st.mirrors = append(st.mirrors, m)
		}
	}
	if lead != nil && !c.mirrorsLocked(lead.memberID()) {
		st.mirrors = st.mirrors[:0]
	}
	c.mu.RUnlock()
	if len(st.owners) == 0 {
		return ErrNoNodes
	}
	if lead == nil {
		return fmt.Errorf("cluster: write %q: %w", op.Key, ErrAllOwnersDown)
	}
	if lead != primary {
		c.writeFailovers.Add(1) // the primary is down: a surviving owner leads
		c.noteFailoverEvent("write", primary)
	}
	st.one[0] = OpResult{} // recycled: a stale Applied must not mirror a failed write
	req := st.newReq(lead.memberID(), lead, st.one[:])
	req.add(op, 0, st.mirrors)
	st.done.Add(1)
	lead.execute(req, false)
	if err := st.errs.first(); err != nil {
		return fmt.Errorf("cluster: write %q via member %d: %w", op.Key, lead.memberID(), err)
	}
	return nil
}

// Apply executes a batch of point ops through the shard queues with
// backpressure: sub-batches block for queue space rather than shed.
// Results are positionally aligned with ops.
func (c *Cluster) Apply(ops []Op) ([]OpResult, error) {
	return c.apply(ops, member.submit)
}

// TryApply is Apply under admission control: any sub-batch that meets a
// full queue is shed and ErrOverload returned after the accepted
// sub-batches complete. Shed ops report zero OpResults.
func (c *Cluster) TryApply(ops []Op) ([]OpResult, error) {
	return c.apply(ops, member.trySubmit)
}

// ApplyInto is Apply writing results into a caller-owned slice (len(res)
// must be >= len(ops)) — the allocation-free form for callers that
// recycle result buffers, like the transport server's dispatch scratch.
// res is zeroed before execution; ops that never execute (a planning
// failure, a shed sub-batch) leave zero OpResults behind.
func (c *Cluster) ApplyInto(ops []Op, res []OpResult) error {
	_, err := c.applyInto(ops, res, member.submit)
	return err
}

// TryApplyInto is TryApply writing results into a caller-owned slice.
func (c *Cluster) TryApplyInto(ops []Op, res []OpResult) error {
	_, err := c.applyInto(ops, res, member.trySubmit)
	return err
}

func (c *Cluster) apply(ops []Op, enqueue func(member, *request) error) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(ops))
	planned, err := c.applyInto(ops, results, enqueue)
	if !planned {
		return nil, err // never started executing: no partial results
	}
	return results, err
}

// applyInto routes and executes ops, writing outcomes into results.
// planned reports whether execution began — a false return means no op
// ran and results holds nothing but zeros.
func (c *Cluster) applyInto(ops []Op, results []OpResult, enqueue func(member, *request) error) (planned bool, err error) {
	if len(ops) == 0 {
		return true, nil
	}
	clear(results[:len(ops)])
	// Plan under a short topology read lock, then execute with it
	// released: sub-batch RPCs and queue waits must not pin the lock (see
	// Get's lock-discipline comment — a reader parked across the network
	// starves view adoption and cycles with peers doing the same).
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return false, ErrClosed
	}
	st := applyPool.Get().(*applyState)
	if err := c.planInto(st, ops, results); err != nil {
		st.release()
		c.mu.RUnlock()
		return false, err
	}
	view := c.view
	c.mu.RUnlock()
	var firstErr error
	for i := range st.reqs {
		st.done.Add(1)
		if err := enqueue(st.reqs[i].owner, &st.reqs[i]); err != nil {
			st.done.Done()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	st.done.Wait()
	if firstErr == nil {
		// Remote sub-batches complete asynchronously; their failures
		// (including a remote's shed ErrOverload) surface here.
		firstErr = st.errs.first()
	}
	st.release()
	if firstErr == nil && !view.AllSettled() {
		// Migration in flight: a read that missed at its new owner may
		// still live only under the last settled ownership map.
		c.fallbackReads(ops, results)
	}
	return true, firstErr
}

// fallbackReads re-serves missed OpGets against the owners of the
// last fully settled view — the replica set acknowledged writes are
// guaranteed to have reached while an epoch's migration is in flight.
// Member lookups take the topology lock briefly per key; the reads
// themselves run unlocked.
func (c *Cluster) fallbackReads(ops []Op, results []OpResult) {
	c.mu.RLock()
	ls := c.lastSettled
	repl := c.cfg.Replication
	c.mu.RUnlock()
	for i, op := range ops {
		if op.Kind != OpGet || results[i].Found {
			continue
		}
		for _, id := range ls.Ring().Owners(op.Key, repl) {
			m := c.memberFor(id)
			if m == nil || m.isDown() {
				continue
			}
			if v, ok, err := m.directGet(op.Key); err == nil && ok {
				results[i] = OpResult{Value: v, Found: true}
				break
			}
		}
	}
}

// Scan scatter-gathers a bounded ordered scan: every node scans its own
// engine at one point in time (so each partial is internally consistent
// even mid-flush), and the coordinator k-way merges the partial results,
// deduping the copies replication leaves on successor nodes. Returned
// entries alias engine records or transport page arenas and are
// read-only (DESIGN.md §12).
//
// Failed or down members contribute no partial. As long as fewer
// members failed than the replication factor, every keyrange retains at
// least one scanned owner and the merged result is complete — returned
// with a nil error. Once failures reach R, coverage is lost: the merge
// is returned alongside ErrScanIncomplete so a short result can never
// be mistaken for an exhausted range (the guarantee paged transport
// scans already make).
func (c *Cluster) Scan(start []byte, limit int) ([]engine.Entry, error) {
	return c.AppendScan(nil, start, limit)
}

// AppendScan is Scan appending the merged result into dst (reusing its
// capacity) — the allocation-free form for callers recycling scan
// buffers, like the transport server's dispatch scratch. On error the
// result still starts with dst's own entries.
//
// The scatter runs without the topology lock and pins the view epoch it
// planned under: a membership change that commits mid-scatter (a
// concurrent join moving a keyrange the scan spans) invalidates the
// attempt, which retries on the new view instead of merging partials
// from two different ownership maps into duplicates or gaps. An elastic
// member answers from its local shard only — cross-member scans are the
// coordinator's job (scattering from inside a scatter would recurse).
func (c *Cluster) AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	if limit <= 0 {
		return dst, nil
	}
	c.mu.RLock()
	if c.selfID >= 0 {
		m := c.nodes[c.selfID]
		c.mu.RUnlock()
		if m == nil {
			return dst, nil
		}
		return m.snapshotScan(dst, start, limit)
	}
	c.mu.RUnlock()
	const attempts = 3
	base := len(dst)
	for i := 0; i < attempts; i++ {
		merged, retry, err := c.scanOnce(dst[:base], start, limit)
		if !retry {
			return merged, err
		}
		dst = merged[:base]
	}
	return dst[:base], fmt.Errorf("cluster: scan raced %d membership changes: %w", attempts, ErrWrongEpoch)
}

// scanOnce runs one epoch-pinned scatter-gather attempt. retry reports
// that the view changed mid-scatter and the caller should re-plan.
func (c *Cluster) scanOnce(dst []engine.Entry, start []byte, limit int) (merged []engine.Entry, retry bool, err error) {
	c.mu.RLock()
	if c.closed || len(c.nodes) == 0 {
		c.mu.RUnlock()
		return dst, false, nil
	}
	epoch := c.view.Epoch
	ids := c.ring.Members()
	if !c.view.AllSettled() {
		// While an epoch's migration is in flight, members of the last
		// settled view may still hold the only copy of a moving keyrange —
		// scan the union of both member sets (the merge dedups).
		ids = ringUnion(c.view, c.lastSettled)
	}
	sc := scatterPool.Get().(*scatter)
	defer sc.release()
	sc.grow(len(ids))
	for i, id := range ids {
		sc.members[i] = c.nodes[id]
	}
	effR := c.cfg.Replication
	c.mu.RUnlock()

	merged = dst
	switch {
	case len(ids) == 1:
		// One member — every shard server's one-shard backend: its
		// partial is the result, so it scans straight into dst.
		merged, sc.failed[0] = scanLeg(sc.members[0], dst, start, limit)
	case len(ids) > 1:
		// The calling goroutine runs the first leg itself.
		for i := 1; i < len(ids); i++ {
			sc.wg.Add(1)
			go sc.goLeg(i, start, limit)
		}
		sc.leg(0, start, limit)
		sc.wg.Wait()
		merged = sc.merge(dst, limit)
	}
	if c.epoch.Load() != epoch {
		return dst, true, nil // ownership moved under the scatter: re-plan
	}
	nfailed := 0
	for _, f := range sc.failed {
		if f {
			nfailed++
		}
	}
	if nfailed == 0 {
		return merged, false, nil
	}
	// Effective R never exceeds the member count (Owners clamps), so a
	// single-member R=3 ring still reports lost coverage when its only
	// member dies.
	if effR > len(ids) {
		effR = len(ids)
	}
	if nfailed < effR {
		return merged, false, nil
	}
	return merged, false, fmt.Errorf("cluster: %d of %d members unreachable with R=%d: %w",
		nfailed, len(ids), effR, ErrScanIncomplete)
}

// scatter is one scan attempt's per-member state, pooled across scans:
// the members planned, each leg's partial buffer and outcome, and the
// merge cursors.
type scatter struct {
	wg      sync.WaitGroup
	members []*memberState
	parts   [][]engine.Entry
	failed  []bool
	idx     []int
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

// maxPooledPart caps the partial buffers a scatter keeps for reuse: a
// full-range scan's partial goes to the garbage collector instead of
// pinning its header array in the pool.
const maxPooledPart = 1024

// grow sizes the scatter for n members.
func (sc *scatter) grow(n int) {
	sc.members = slices.Grow(sc.members[:0], n)[:n]
	sc.parts = slices.Grow(sc.parts[:0], n)[:n]
	sc.failed = slices.Grow(sc.failed[:0], n)[:n]
	sc.idx = slices.Grow(sc.idx[:0], n)[:n]
}

// release clears the scatter and returns it to the pool. Partial
// entries alias engine records or client page arenas, so every slot is
// zeroed: a pooled entry would keep a superseded record, or a remote
// page's whole arena, reachable for as long as it sits in the pool.
func (sc *scatter) release() {
	clear(sc.members)
	for i, p := range sc.parts {
		clear(p)
		if cap(p) > maxPooledPart {
			p = nil
		}
		sc.parts[i] = p[:0]
	}
	clear(sc.failed)
	clear(sc.idx)
	scatterPool.Put(sc)
}

// scanLeg scans member m into dst; failed reports a down member or a
// failed scan (which leaves dst as it was).
func scanLeg(m *memberState, dst []engine.Entry, start []byte, limit int) (out []engine.Entry, failed bool) {
	if m == nil || m.isDown() {
		return dst, true
	}
	out, err := m.snapshotScan(dst, start, limit)
	return out, err != nil
}

// leg scans member i into its partial buffer.
func (sc *scatter) leg(i int, start []byte, limit int) {
	sc.parts[i], sc.failed[i] = scanLeg(sc.members[i], sc.parts[i][:0], start, limit)
}

// goLeg is leg on its own goroutine.
func (sc *scatter) goLeg(i int, start []byte, limit int) {
	defer sc.wg.Done()
	sc.leg(i, start, limit)
}

// merge k-way merges the sorted partials into the first limit distinct
// keys (replicas carry identical values, so the first copy wins),
// appending to dst.
func (sc *scatter) merge(dst []engine.Entry, limit int) []engine.Entry {
	parts, idx := sc.parts, sc.idx
	out, base := dst, len(dst)
	for len(out)-base < limit {
		best := -1
		for i := range parts {
			if idx[i] >= len(parts[i]) {
				continue
			}
			if best == -1 || bytes.Compare(parts[i][idx[i]].Key, parts[best][idx[best]].Key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		e := parts[best][idx[best]]
		for i := range parts {
			for idx[i] < len(parts[i]) && bytes.Equal(parts[i][idx[i]].Key, e.Key) {
				idx[i]++
			}
		}
		out = append(out, e)
	}
	return out
}

// Stats is a cluster-wide activity snapshot.
type Stats struct {
	Nodes    []NodeStats
	Accepted uint64
	Rejected uint64
	Batches  uint64
	Ops      uint64
	// Down counts members the failure detector currently considers down.
	Down int
}

// Stats snapshots every node, ordered by node id, from state this
// process holds: local nodes report their own counters, remote members
// only what the coordinator tracks about them (detector verdict, hint
// buffer, transport errors). It never touches the wire — a remote
// shard's counters reach a collector through the metrics federation
// (transport.Client.FetchMetrics, obs.MergeSnapshots). An elastic member
// reports its local shard only; its peers are their own processes.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.ring.Members()
	if c.selfID >= 0 {
		ids = []int{c.selfID}
	}
	var st Stats
	for _, id := range ids {
		m := c.nodes[id]
		if m == nil {
			st.Down++ // known to the view but not yet dialed
			continue
		}
		ns := m.stats()
		st.Nodes = append(st.Nodes, ns)
		st.Accepted += ns.Accepted
		st.Rejected += ns.Rejected
		st.Batches += ns.Batches
		st.Ops += ns.Ops
		if ns.Down {
			st.Down++
		}
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].ID < st.Nodes[j].ID })
	return st
}

// Close stops every node, draining their queues first, and stops the
// background prober and migrator.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.proberStop != nil {
		close(c.proberStop)
		c.proberStop = nil
	}
	if c.migStop != nil {
		close(c.migStop)
		c.migStop = nil
	}
	migDone := c.migDone
	nodes := make([]*memberState, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	if migDone != nil {
		<-migDone // the migrator takes mu itself; wait unlocked
	}
	for _, n := range nodes {
		n.close()
	}
}
