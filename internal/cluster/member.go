package cluster

import "repro/internal/engine"

// mirror is a replica-write target: a secondary owner the writes of a
// replicated sub-batch must reach after the primary applied them.
// mirrorBatch lands ops — all writes, in primary order — on the target's
// own store as one unit: local nodes write one engine batch, remote
// members pay one round trip. A non-nil error reports a batch the target
// did not take, whatever the reason — the health layer (memberState)
// turns every op in it into a hinted-handoff entry instead of losing the
// copy. A single mirrored write is a batch of one. A static membership
// change moves its copies and drops through the same call, unhinted
// (memberState.storeBatch): there a batch that did not land fails the
// change.
type mirror interface {
	mirrorBatch(ops []Op) error
}

// member is the coordinator's view of one shard. The in-process *Node
// and the remoteMember proxy (see Remote) both satisfy it, so the ring
// can mix local and remote shards transparently: routing, replication,
// scatter-gather scans, rebalance and stats all program against this
// interface and never ask where the shard lives. The coordinator wraps
// every member in a memberState (health.go), which layers failure
// detection and hinted handoff over these calls.
type member interface {
	mirror
	// memberID is the ring id the coordinator assigned.
	memberID() int
	// ping is the liveness probe: nil means the member answered. Local
	// nodes answer from memory; remote members pay a health round trip
	// (transport.Client.Ping) bounded by the probe timeout.
	ping() error
	// directGet serves a point read outside the batch queues (the
	// coordinator's read-your-writes hot path). The error separates a
	// transport failure from a genuine miss, so failover reads never
	// mistake a dead member for an absent key.
	directGet(key []byte) ([]byte, bool, error)
	// execute runs one sub-batch to completion on the calling goroutine
	// — the primary apply and, for a replicated sub-batch, the mirror
	// fan-out, as a unit serialized against other writers led by this
	// member (replicate.go). try selects admission control on a remote
	// primary. Failures land on the request (request.fail); the last act
	// is req.done.Done().
	execute(req *request, try bool)
	// snapshotScan appends to dst (which may be nil) up to limit entries
	// with key >= start from a consistent point-in-time view of the
	// shard, so scatter-gather callers can reuse partial buffers. Entries
	// alias engine records (local) or a per-page arena (remote); either
	// way they are read-only. The error is always nil for local nodes;
	// remote members surface transport failures — returning dst itself,
	// so a caller's prefix survives — so migration never mistakes a lost
	// shard for an empty one.
	snapshotScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error)
	// submit enqueues a sub-batch with backpressure; trySubmit sheds
	// with ErrOverload instead of blocking (admission control). Both may
	// complete the request asynchronously, through execute.
	submit(req *request) error
	trySubmit(req *request) error
	// stats snapshots the shard's activity counters.
	stats() NodeStats
	// close releases the member (local: drain and stop workers; remote:
	// drop the proxy's connections — the remote server keeps running).
	close()
}
