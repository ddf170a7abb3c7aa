package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Errors returned by the request paths.
var (
	// ErrOverload reports that a node's bounded queue was full and the
	// batch was shed rather than enqueued (admission control).
	ErrOverload = errors.New("cluster: node queue full, request shed")
	// ErrClosed reports an operation against a closed cluster or node.
	ErrClosed = errors.New("cluster: closed")
	// ErrNoNodes reports an operation against an empty ring.
	ErrNoNodes = errors.New("cluster: no nodes")
	// ErrAllOwnersDown reports an operation on a key whose entire
	// replica set is marked down by the failure detector — there is no
	// live member to serve it, so the op fails explicitly instead of
	// silently dropping (writes) or missing (reads).
	ErrAllOwnersDown = errors.New("cluster: every owner of the key is down")
	// ErrScanIncomplete reports a scatter-gather scan that lost keyrange
	// coverage: at least R members were unreachable, so the merged
	// result may be missing entries and a short result no longer means
	// an exhausted range. The partial merge is returned alongside it.
	ErrScanIncomplete = errors.New("cluster: scan incomplete, keyrange coverage lost")
	// ErrWrongEpoch reports a request routed under a stale membership
	// view: the receiving member's epoch disagrees with the one stamped
	// on the request. The fresh view travels back alongside it (the
	// transport client delivers it to its OnView hook), so the caller
	// re-routes and retries instead of reading or writing through an
	// ownership map that no longer holds.
	ErrWrongEpoch = errors.New("cluster: request carried a stale view epoch")
	// ErrUnsettled refuses a write on a static cluster whose last
	// membership change failed half way (AddNode, RemoveNode, AddRemote
	// returned an error): some keyranges sit between two layouts, and
	// static clusters move data only while writes are held off, so a
	// write accepted now would be overwritten or dropped when the change
	// is resolved. Reads and scans keep working; the next successful
	// membership change (typically RemoveNode of the member that failed
	// to join, or a retry) lifts it.
	ErrUnsettled = errors.New("cluster: membership change incomplete, writes refused until it is resolved")
)

// OpKind selects the operation a batched Op performs.
type OpKind uint8

// Batched operation kinds.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
)

// Op is one point operation inside a batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte // OpPut only
	// Trace, when nonzero, is the distributed trace id this op belongs
	// to. It never changes what the op does: the engine ignores it, and
	// the transport forwards it in the frame header of any RPC the op
	// rides (see internal/obs and DESIGN.md §11), so one id follows a
	// request from the client through primary and replica hops.
	Trace uint64
	// Parent is the span id of the hop that handed this op down — what
	// any span recorded for the op (and the frame header of any RPC it
	// rides) reports as its parent, stitching per-node span logs into
	// one tree. Layers that mint their own span re-stamp Parent before
	// fanning out, so each mirror leg hangs off the hop that issued it.
	// Zero (or Trace zero) means no parentage is recorded.
	Parent uint64
}

// OpResult is the outcome of one Op. Found is meaningful for OpGet.
type OpResult struct {
	Value []byte
	Found bool
	// Applied reports that the op's lead member executed it — for a
	// write, that it landed in the primary's store. Ops a shed or failed
	// sub-batch never ran stay false. Replication mirrors exactly the
	// writes whose result carries it (replicate.go), so every Remote must
	// hand back the results its server produced, bit intact.
	Applied bool
}

// request is one per-node sub-batch flowing through a node's queue. The
// coordinator allocates the result backing array once per Apply; each
// sub-batch writes results through idx so no merge pass is needed.
// Requests live in a pooled applyState arena: once done.Done() has been
// called for a request, nobody may touch it again — the applyState (and
// every request in it) returns to the pool the moment done.Wait()
// unblocks the coordinator.
type request struct {
	lead int // owning member's ring id (planInto's open-batch lookup)
	ops  []Op
	// replicas[i] holds the extra replica targets (beyond the owning
	// member's own store) that write op i must reach; nil for reads and
	// for R=1. replicated is set once any op carries targets: such a
	// sub-batch runs through the replication pipeline (replicate.go)
	// under its lead member's write lock.
	replicas   [][]mirror
	replicated bool
	results    []OpResult // shared backing array for the whole Apply
	idx        []int      // results[idx[i]] receives ops[i]'s outcome
	done       *sync.WaitGroup
	// errs collects failures from sub-batches that complete off the
	// submit path (remote members finish their RPC in a goroutine, so a
	// shed or failed batch cannot surface through the enqueue return).
	// May be nil when the caller has no asynchronous completions.
	errs *asyncErr
	// owner is the memberState the sub-batch was routed to; fail feeds
	// its transport failures into the failure detector so a member dying
	// mid-Apply starts counting toward down without waiting for a probe.
	owner *memberState

	// Scratch the lead member fills while executing, recycled with the
	// request: batch is a local primary's engine write run, legs the
	// per-target mirror batches, fan the join for legs sent in parallel.
	batch []engine.BatchOp
	legs  []mirrorLeg
	fan   sync.WaitGroup
}

// add appends one planned op: results[i] receives its outcome, reps are
// the replica targets a write must reach.
func (r *request) add(op Op, i int, reps []mirror) {
	r.ops = append(r.ops, op)
	r.idx = append(r.idx, i)
	r.replicas = append(r.replicas, reps)
	if len(reps) > 0 {
		r.replicated = true
	}
}

// fail records an asynchronous completion failure, if a collector is
// attached, and feeds transport-level failures to the owning member's
// detector.
func (r *request) fail(err error) {
	if r.owner != nil && isTransportErr(err) {
		r.owner.noteFailure()
	}
	if r.errs != nil {
		r.errs.set(err)
	}
}

// asyncErr is a first-error collector shared by the sub-batches of one
// Apply call.
type asyncErr struct {
	mu  sync.Mutex
	err error
}

func (a *asyncErr) set(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

func (a *asyncErr) first() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// applyState is the pooled per-Apply scratch: the sub-batch arena, the
// replica-target arena, the planner's owner-lookup buffer, and the
// completion plumbing every sub-batch shares. Pooling it makes the
// coordinator's routing and replication layers allocation-free in steady
// state — the request structs, their ops/idx/replicas slices and
// execution scratch, and the WaitGroup all come back on the next Apply
// with their capacity intact.
//
// Reuse is safe because done.Wait() is the last event of an Apply and
// done.Done() is the last touch any worker makes on a request: both
// leaders' execute ends with it, after the final result fill and the
// last mirror ack.
type applyState struct {
	reqs    []request   // sub-batch arena; parts point into it
	mirrors []mirror    // replica-target arena; replicas slices point into it
	owners  []int       // one op's owner set while planInto routes it
	one     [1]OpResult // result slot of a single-key write (Cluster.write)
	done    sync.WaitGroup
	errs    asyncErr
}

var applyPool = sync.Pool{New: func() any { return new(applyState) }}

// newReq extends the sub-batch arena by one, reusing a recycled
// request's slice capacity when the arena has been this deep before.
func (st *applyState) newReq(lead int, owner *memberState, results []OpResult) *request {
	if len(st.reqs) < cap(st.reqs) {
		st.reqs = st.reqs[:len(st.reqs)+1]
	} else {
		st.reqs = append(st.reqs, request{})
	}
	r := &st.reqs[len(st.reqs)-1]
	r.lead = lead
	r.ops = r.ops[:0]
	r.replicas = r.replicas[:0]
	r.replicated = false
	r.idx = r.idx[:0]
	r.results = results
	r.done = &st.done
	r.errs = &st.errs
	r.owner = owner
	return r
}

// release resets the state and returns it to the pool. Stale Op and
// mirror values stay in the recycled slices' capacity but are never
// read again — every reuse truncates to length zero first.
func (st *applyState) release() {
	st.reqs = st.reqs[:0]
	st.mirrors = st.mirrors[:0]
	st.errs.err = nil
	applyPool.Put(st)
}

// planInto splits ops by owner under the current ring into st's pooled
// sub-batches, resolving each write's replica targets up front so node
// workers never touch topology state. Ops route to the first live owner
// of their key — the primary when it is up, the next replica in ring
// order when it is not — so a down member degrades its keyranges onto
// survivors instead of failing them. Down owners of a write still
// appear as replica targets; their memberState buffers the op as hinted
// handoff. A key whose entire owner set is down fails the batch with
// ErrAllOwnersDown. Caller holds the cluster's topology read lock.
func (c *Cluster) planInto(st *applyState, ops []Op, results []OpResult) error {
	if c.ring.Size() == 0 {
		return ErrNoNodes
	}
	frozen := c.frozenLocked()
	for i, op := range ops {
		if frozen && op.Kind != OpGet {
			return fmt.Errorf("cluster: op %d on key %q: %w", i, op.Key, ErrUnsettled)
		}
		// Routing resolves on the allocation-free Primary when it is
		// live and the op needs no replica set — on a read-heavy healthy
		// cluster that is most of the hot path. Writes under R>1 and any
		// op whose primary is down pay the full owner lookup.
		var lead int
		var reps []mirror
		primary := c.ring.Primary(op.Key)
		needOwners := op.Kind != OpGet && c.cfg.Replication > 1 && c.mirrorsLocked(primary)
		if !needOwners && c.nodes[primary] != nil && !c.nodes[primary].isDown() {
			lead = primary
		} else {
			st.owners = c.ring.AppendOwners(st.owners[:0], op.Key, c.cfg.Replication)
			owners := st.owners
			lead = -1
			for _, id := range owners {
				if m := c.nodes[id]; m != nil && !m.isDown() {
					lead = id
					break
				}
			}
			if lead == -1 {
				return fmt.Errorf("cluster: op %d on key %q: %w", i, op.Key, ErrAllOwnersDown)
			}
			if lead != owners[0] && op.Trace != 0 && c.spans != nil {
				// A traced op routed around its down primary: leave a
				// zero-duration annotation so the assembled trace shows
				// the reroute, not just an unexplained slow hop.
				c.spans.Record(obs.Span{
					Trace: op.Trace, ID: obs.NewSpanID(), Parent: op.Parent,
					Name: "cluster/failover", Start: time.Now(),
					Err: fmt.Sprintf("primary %d down, write led by member %d", owners[0], lead),
				})
			}
			if op.Kind != OpGet && c.mirrorsLocked(lead) {
				start := len(st.mirrors)
				for _, id := range owners {
					if id != lead && c.nodes[id] != nil {
						st.mirrors = append(st.mirrors, c.nodes[id])
					}
				}
				if end := len(st.mirrors); end > start {
					reps = st.mirrors[start:end:end]
				}
			}
		}
		// Find lead's open sub-batch: only the most recent one for a
		// member can have room (they fill in order), so scan backwards
		// and stop at the first match. Map-free — sub-batch counts stay
		// small (live members plus maxBatch splits).
		var req *request
		for j := len(st.reqs) - 1; j >= 0; j-- {
			if st.reqs[j].lead == lead {
				if len(st.reqs[j].ops) < maxBatch {
					req = &st.reqs[j]
				}
				break
			}
		}
		if req == nil {
			req = st.newReq(lead, c.nodes[lead], results)
		}
		req.add(op, i, reps)
	}
	return nil
}
