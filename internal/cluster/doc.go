// Package cluster is a sharded multi-node runtime for the Cloud OLTP and
// search-serving workloads: the scale-out layer the paper's testbed gets
// from its 14-node HBase/Nutch deployment and this repository previously
// lacked (every substrate ran single-node, single-shard).
//
// The pieces, bottom-up:
//
//   - Ring (ring.go): a consistent-hash ring with virtual nodes. Keys and
//     node replicas hash onto a 64-bit circle; a key's owners are the
//     first R distinct nodes clockwise from its hash. Virtual nodes keep
//     the per-node key share balanced, and consistent hashing bounds the
//     data movement when membership changes to the keys whose arc moved.
//
//   - Node (node.go): one in-process shard server owning an independent
//     storage engine (internal/engine; the LSM backend by default), a
//     bounded request queue, and a small
//     worker pool that drains the queue in coalesced batches. A full
//     queue sheds load (ErrOverload) instead of growing without bound —
//     the admission-control behaviour of a production region server.
//
//   - Cluster (cluster.go): the coordinator. Point ops route to the key's
//     primary; multi-op batches are split by owner and scattered
//     (batch.go); scans scatter to every node and k-way merge; writes are
//     applied synchronously to all R owners — a sub-batch at a time: one
//     apply on the primary, one mirror batch per replica, under the
//     primary's write lock (replicate.go) — so a subsequent read of the
//     primary always observes them (read-your-writes on the primary).
//
//   - Views and migration (view.go, migrate.go): membership is an
//     immutable, epoch-versioned ClusterView — the ring is always a
//     view's ring — and every membership change is the same three steps:
//     derive the next view, commit it, and run the copy pass (push each
//     key to the owners it gained) and, once the view has settled, the
//     drop pass (delete it from the owners it lost). Elastic members
//     (gossip.go) drive the passes from a throttled background loop
//     beside live traffic.
//
//   - Rebalance (rebalance.go): AddNode/RemoveNode/AddRemote are the
//     static driver of those passes. They hold the topology lock for the
//     whole change (new ops park on it), run the passes synchronously
//     for every ring member, and move exactly the entries whose owner
//     set changed. A change that fails part-way leaves the view
//     unsettled: nothing was dropped, reads keep consulting the last
//     settled owners, and writes are refused (ErrUnsettled) until a later
//     change resolves it — the lock was their only protection.
//
//   - Health (health.go): every member is wrapped in a failure detector
//     with a hinted-handoff buffer. A background prober pings members
//     (remote ones pay a wire round trip); consecutive probe or
//     transport failures mark a member down. Reads and batch routing
//     fail over to the next live owner, writes to down replicas buffer
//     as hints and replay on recovery, scans report lost keyrange
//     coverage (ErrScanIncomplete) instead of silently shrinking, and
//     an op whose whole owner set is down fails with ErrAllOwnersDown.
//
// Sharding pays even on one core: each shard's memtable, runs and Bloom
// filters cover 1/N of the keyspace, so point lookups walk shorter
// skiplists and smaller binary-search windows, and — the dominant term —
// a size-tiered full compaction rewrites an N×-smaller store, cutting
// total compaction work by roughly N for the same write volume.
package cluster
