package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Node is one in-process shard server: an independent storage engine
// fronted by a bounded request queue and a small worker pool. It models
// a region server — the unit the coordinator routes to, replicates
// across, and rebalances between. The node programs against the
// engine.Engine interface, not the LSM store behind it.
type Node struct {
	id  int
	eng engine.Engine

	// wmu serializes the primary+replica application of each write this
	// node owns. Every write for a key flows through its primary node
	// (queued or direct), so holding the primary's wmu makes the
	// multi-store update atomic with respect to other writers and keeps
	// replicas byte-identical to the primary.
	wmu sync.Mutex

	queue    chan *request
	workers  int
	maxBatch int
	wg       sync.WaitGroup

	// spans, when non-nil, receives a "cluster/write" span for every
	// sub-batch with a traced write this node leads (exec + replicate
	// phases); mirror legs are re-parented onto it so replica hops hang
	// off this one. Untraced ops never touch it.
	spans *obs.SpanLog

	closeOnce sync.Once
	closed    atomic.Bool

	// guard, when non-nil, is the armed dirty-guard for an epoch whose
	// migration is in flight (migrate.go): every local write marks its
	// key so a racing migration copy can never bury it. Settled epochs
	// run with a nil guard — one atomic load on the write path.
	guard      atomic.Pointer[migrationGuard]
	guardSkips atomic.Uint64 // migration copies shadowed by newer live writes

	accepted atomic.Uint64 // requests enqueued
	rejected atomic.Uint64 // requests shed by admission control
	batches  atomic.Uint64 // worker drain cycles (coalesced groups)
	ops      atomic.Uint64 // point ops executed (queued + direct)
}

// NodeStats is a snapshot of one node's activity as this process holds
// it. The queue, op and Store counters are a local node's own (zero for
// a remote member, whose server exports them through its registry);
// the rest is coordinator-side state about the member.
type NodeStats struct {
	ID                 int
	Accepted, Rejected uint64
	Batches, Ops       uint64
	// TransportErrs counts RPC failures a remote member's proxy observed
	// (always 0 for local nodes) — the audit trail for writes or scans
	// the void paths had to drop.
	TransportErrs uint64
	// Down reports the coordinator's failure-detector verdict for this
	// member at snapshot time; the hint counters account for its hinted
	// handoff (writes buffered while unreachable, replayed on recovery,
	// or dropped past the buffer bound).
	Down                        bool
	HintsPending, HintsReplayed uint64
	HintsDropped                uint64
	Store                       engine.Stats
}

// newNode builds a stopped node; start launches its workers.
func newNode(id int, eng engine.Engine, queueDepth, workers, maxBatch int) *Node {
	return &Node{
		id:       id,
		eng:      eng,
		queue:    make(chan *request, queueDepth),
		workers:  workers,
		maxBatch: maxBatch,
	}
}

func (n *Node) start() {
	for i := 0; i < n.workers; i++ {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.run()
		}()
	}
}

// run drains the queue, opportunistically coalescing queued requests into
// one wakeup (group commit) up to the batch cap.
func (n *Node) run() {
	for req := range n.queue {
		n.batches.Add(1)
		// Size bookkeeping must happen before execute: its final act is
		// done.Done(), after which the pooled request may be recycled by
		// the next Apply — reading req past that point is a use-after-
		// release race.
		budget := n.maxBatch - len(req.ops)
		n.execute(req, false)
		for budget > 0 {
			select {
			case more, ok := <-n.queue:
				if !ok {
					return
				}
				budget -= len(more.ops)
				n.execute(more, false)
			default:
				budget = 0
			}
		}
	}
}

// memberID, ping, directGet, mirrorBatch and snapshotScan are the
// in-process half of the member interface: engine calls with no queue or
// wire in between.
func (n *Node) memberID() int { return n.id }

// ping answers liveness from memory: an in-process node is reachable
// for exactly as long as it has not been closed.
func (n *Node) ping() error {
	if n.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (n *Node) directGet(key []byte) ([]byte, bool, error) {
	v, ok := n.eng.Get(key)
	return v, ok, nil
}

func (n *Node) mirrorBatch(ops []Op) error { return n.applyLocal(ops, false) }

// markDirty records a live write with the armed migration guard, if any.
func (n *Node) markDirty(key []byte) {
	if g := n.guard.Load(); g != nil {
		g.mark(key)
	}
}

// writeRunPool recycles the engine write runs applyLocal builds; the
// engine copies keys and values, so a run is free the moment WriteBatch
// returns. (execute keeps its run in the request arena instead.)
var writeRunPool = sync.Pool{New: func() any { return new([]engine.BatchOp) }}

// batchOp is op as an engine write.
func batchOp(op Op) engine.BatchOp {
	return engine.BatchOp{Key: op.Key, Value: op.Value, Delete: op.Kind == OpDelete}
}

// applyLocal lands ops — all writes — on this node's engine as one
// WriteBatch, without replica fan-out. Live writes (migration=false)
// mark the dirty-guard first; migration copies (migration=true) are
// dropped key by key when the key was written after the epoch began —
// check and apply happen under the guard lock, so every interleaving
// leaves the live write's value on top. A nil guard means the epoch has
// settled: late migration copies are dropped outright (the sender
// settles only after its pushes completed, so a copy arriving now is a
// stale retry).
func (n *Node) applyLocal(ops []Op, migration bool) error {
	if n.closed.Load() {
		return ErrClosed
	}
	var g *migrationGuard
	if migration {
		if g = n.guard.Load(); g == nil {
			n.guardSkips.Add(uint64(len(ops)))
			return nil
		}
	}
	buf := writeRunPool.Get().(*[]engine.BatchOp)
	run := (*buf)[:0]
	if migration {
		g.mu.Lock()
		for i := range ops {
			if _, dirty := g.dirty[string(ops[i].Key)]; dirty {
				n.guardSkips.Add(1)
				continue
			}
			run = append(run, batchOp(ops[i]))
		}
		n.eng.WriteBatch(run)
		g.mu.Unlock()
	} else {
		for i := range ops {
			n.markDirty(ops[i].Key)
			run = append(run, batchOp(ops[i]))
		}
		n.eng.WriteBatch(run)
	}
	*buf = run
	writeRunPool.Put(buf)
	return nil
}

// snapshotScan is the engine's own scan: already point-in-time and
// lock-free, where a Snapshot would first queue behind the engine's
// writer lock — and so behind any flush or compaction holding it.
func (n *Node) snapshotScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	return n.eng.AppendScan(dst, start, limit), nil
}

// execute applies one sub-batch against the engine in order — reads one
// by one, each run of consecutive writes as one engine WriteBatch (one
// writer-lock acquisition and atomic visibility for the run: group
// commit) — then releases the waiter. A replicated sub-batch holds wmu
// from its first op until the writes have been mirrored to the replica
// targets resolved at planning time (replicate.go); a replica-free one
// takes it only around each write run.
//
// A sub-batch holding a traced write records a "cluster/write" span
// splitting the hop into its local-apply (exec) and mirror fan-out
// (replicate) phases; the mirror legs are re-parented onto that span, so
// a remote replica's own server span reports this hop as its parent via
// the wire frame.
func (n *Node) execute(req *request, _ bool) {
	if req.replicated {
		n.wmu.Lock()
	}
	span := beginWriteSpan(n.spans, req)
	ops := req.ops
	for i := 0; i < len(ops); {
		if ops[i].Kind == OpGet {
			v, ok := n.eng.Get(ops[i].Key)
			req.results[req.idx[i]] = OpResult{Value: v, Found: ok, Applied: true}
			i++
			continue
		}
		run := req.batch[:0]
		for ; i < len(ops) && ops[i].Kind != OpGet; i++ {
			n.markDirty(ops[i].Key)
			run = append(run, batchOp(ops[i]))
			req.results[req.idx[i]] = OpResult{Applied: true}
		}
		req.batch = run
		if req.replicated {
			n.eng.WriteBatch(run)
		} else {
			n.wmu.Lock()
			n.eng.WriteBatch(run)
			n.wmu.Unlock()
		}
	}
	n.ops.Add(uint64(len(ops)))
	span.execDone()
	if req.replicated {
		req.mirrorApplied()
		n.wmu.Unlock()
	}
	span.end(nil)
	req.done.Done()
}

// trySubmit enqueues without blocking; a full queue sheds the request.
func (n *Node) trySubmit(req *request) error {
	if n.closed.Load() {
		return ErrClosed
	}
	select {
	case n.queue <- req:
		n.accepted.Add(1)
		return nil
	default:
		n.rejected.Add(1)
		return ErrOverload
	}
}

// submit enqueues with backpressure: a full queue blocks the caller until
// a worker drains space.
func (n *Node) submit(req *request) error {
	if n.closed.Load() {
		return ErrClosed
	}
	n.queue <- req
	n.accepted.Add(1)
	return nil
}

// close stops intake and waits for the workers to drain the queue.
func (n *Node) close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.queue)
		n.wg.Wait()
	})
}

// stats snapshots the node counters.
func (n *Node) stats() NodeStats {
	return NodeStats{
		ID:       n.id,
		Accepted: n.accepted.Load(),
		Rejected: n.rejected.Load(),
		Batches:  n.batches.Load(),
		Ops:      n.ops.Load(),
		Store:    n.eng.Stats(),
	}
}
