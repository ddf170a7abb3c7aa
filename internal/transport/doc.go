// Package transport turns the in-process cluster into a networked
// service: a compact length-prefixed binary wire protocol, a TCP server
// that hosts cluster nodes behind a listener, and a pooled pipelining
// client whose RemoteNode proxy satisfies the coordinator's member
// contract (cluster.Remote).
//
// The paper measures its Cloud-OLTP and search workloads on a real
// 14-node testbed serving network clients; this package supplies the
// missing wire so shard nodes can live in separate processes and the
// coordinator routes over TCP:
//
//	client procs                 server procs
//	┌───────────────┐   frames   ┌──────────────────────┐
//	│ Cluster (ring)│ ─────────► │ Server ─ Cluster ─ LSM│
//	│  ├ Node (local)│           └──────────────────────┘
//	│  └ RemoteNode ─┼─────────► ┌──────────────────────┐
//	└───────────────┘            │ Server ─ Cluster ─ LSM│
//	                             └──────────────────────┘
//
// Request pipelining: every frame carries a request id, connections are
// never blocked on one outstanding request, and responses return in
// completion order. The server bounds concurrently executing requests
// (256 at once) and sheds the excess with an overload
// frame that surfaces as cluster.ErrOverload at the client — the same
// admission-control signal the in-process queues use — while the client
// retries shed blocking ops with doubling backoff.
//
// Shutdown is a graceful drain: Server.Close stops accepting, unblocks
// the read loops, lets every admitted request finish and flush its
// response, then closes the connections.
//
// Consistency note: a sub-batch of replicated writes whose primary is
// remote costs one batch RPC to the primary and one mirror RPC per
// replica, serialized through the primary's proxy (one coordinator
// process) from the first to the last ack, so while the replica set is
// healthy, replicas stay byte-identical to the primary exactly as
// in-process. Failover promotion weakens this:
// a false-positive down verdict moves the write lead (and its
// serializing lock) to another member, so concurrent writes of one key
// straddling the flip can apply in different orders on different
// copies — ops carry no versions, so nothing fences the stale order
// (see DESIGN.md §9 for the limits of the failure model).
// Mirroring tracks the per-op applied bit batch results carry
// (RespResults' outcome byte): a partly shed TryApply mirrors exactly
// the applied portion, and a primary RPC that dies on the wire mirrors
// nothing — no result came back, the proxy cannot know which ops the
// remote applied, and the caller gets the error. Once the primary has
// applied, a mirror RPC that fails for any reason is buffered by the
// coordinator's health layer as hinted handoff and replayed, in chunked
// batches, when the member answers probes again, so a failure on the
// replica side degrades the R-copy invariant to "eventually R copies"
// rather than silently shedding one.
//
// Liveness: OpPing is answered straight from the server's read loop
// without an admission permit (an overloaded server is alive), and
// Client.Ping fails fast — redials are bounded by PingTimeout, not the
// patient DialTimeout — so a prober sweeping dead members never stalls.
package transport
