package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

// topology is one workload's system under test, all in this process:
// either an in-process cluster, or a routing coordinator joined over
// loopback TCP to shard servers that each host a one-shard cluster.
// Engines keep their defaults (1 MiB memtable, 4 MiB block cache), which
// the workload sizes are chosen against.
type topology struct {
	coord    *cluster.Cluster
	backends []*cluster.Cluster // one per shard server; empty in-process
	servers  []*transport.Server
	remotes  []*transport.RemoteNode

	// regs are the serving side's registries — one per shard server, or
	// the in-process cluster's — so a before/after delta counts the work
	// the engines and servers did, not what the client saw. pool is the
	// process-wide frame pool, registered once.
	regs []*obs.Registry
	pool *obs.Registry

	// benchSpans is the client-side span ring (coordinator and client
	// connections); each server records into its own private ring. The
	// rings exist in every run and stay empty until ops carry a trace id.
	benchSpans *obs.SpanLog

	closed bool
}

func buildTopology(net bool, repl int) (*topology, error) {
	t := &topology{pool: obs.NewRegistry(), benchSpans: obs.NewSpanLog(4096)}
	t.benchSpans.SetNode("bench")
	transport.RegisterPoolMetrics(t.pool)
	if !net {
		t.coord = cluster.New(cluster.Config{Shards: shards, Replication: repl, Engine: engine.Options{}, Spans: t.benchSpans})
		reg := obs.NewRegistry()
		t.coord.RegisterMetrics(reg)
		t.regs = append(t.regs, reg)
		return t, nil
	}
	t.coord = cluster.NewEmpty(cluster.Config{Replication: repl, Spans: t.benchSpans})
	for s := 0; s < shards; s++ {
		backend := cluster.New(cluster.Config{Shards: 1, Engine: engine.Options{}})
		t.backends = append(t.backends, backend)
		reg := obs.NewRegistry()
		srv, err := transport.Listen("127.0.0.1:0", backend, transport.ServerOptions{Metrics: reg, TraceBuffer: 4096})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		t.servers = append(t.servers, srv)
		backend.RegisterMetrics(reg)
		srv.RegisterMetrics(reg)
		t.regs = append(t.regs, reg)
		rn, err := transport.Connect(srv.Addr(), transport.ClientOptions{Conns: connsPerSrv, Spans: t.benchSpans})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("connect %s: %w", srv.Addr(), err)
		}
		t.remotes = append(t.remotes, rn)
		if _, _, err := t.coord.AddRemote(rn); err != nil {
			t.close()
			return nil, fmt.Errorf("join %s: %w", srv.Addr(), err)
		}
	}
	return t, nil
}

// close stops the coordinator (which closes its remote connections),
// then the servers, then the stores behind them. Closing twice is
// harmless.
func (t *topology) close() {
	if t.closed {
		return
	}
	t.closed = true
	t.coord.Close()
	for _, rn := range t.remotes {
		rn.Close() // one that never joined the ring is not the coordinator's to close
	}
	for _, srv := range t.servers {
		srv.Close()
	}
	for _, b := range t.backends {
		b.Close()
	}
}

// preload writes every key once through the public Apply path.
func (t *topology) preload(kt *keyTable) error {
	const chunk = 256
	ops := make([]cluster.Op, 0, chunk)
	vals := make([][]byte, chunk)
	for i := range vals {
		vals[i] = kt.newValue()
	}
	res := make([]cluster.OpResult, chunk)
	for i, key := range kt.keys {
		v := vals[len(ops)]
		kt.stamp(v, i)
		ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: key, Value: v})
		if len(ops) == chunk || i == len(kt.keys)-1 {
			if err := t.coord.ApplyInto(ops, res[:len(ops)]); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			ops = ops[:0]
		}
	}
	return nil
}

// counters sums every series of the serving-side registries and the
// frame pool into one name{labels} → value map.
func (t *topology) counters() map[string]float64 {
	out := map[string]float64{}
	for _, reg := range append(t.regs[:len(t.regs):len(t.regs)], t.pool) {
		for k, v := range reg.Snapshot() {
			out[k] += v.Float()
		}
	}
	return out
}
