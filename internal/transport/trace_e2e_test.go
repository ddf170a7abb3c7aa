package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// pollSpans fetches trace spans from fetch until want spans arrive or
// the deadline passes. A server records its span before answering, so
// the first fetch normally has them all; the poll only guards against a
// hop still in flight.
func pollSpans(t *testing.T, want int, fetch func() ([]obs.Span, error)) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans, err := fetch()
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) >= want || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceFetchAssembleReplicatedPut drives one traced Put through the
// full replication topology — client, primary server, its cluster
// coordinator, and a second server process joined as a replica — then
// pulls every process's spans over the wire (OpTraceFetch) and asserts
// the assembled trace is the canonical four-hop chain with the phase
// breakdown each layer promises.
func TestTraceFetchAssembleReplicatedPut(t *testing.T) {
	// Replica process: a plain single-shard server with its own ring.
	srvB := startServer(t, newShard(t, 1), ServerOptions{})

	// Primary process: server and cluster coordinator share one span
	// ring, like bdserve wires it, so OpTraceFetch serves both layers.
	ringA := obs.NewSpanLog(256)
	ringA.SetNode("primary")
	backendA := cluster.New(cluster.Config{
		Shards:      1,
		Replication: 2,
		Engine:      engine.Options{MemtableBytes: 32 << 10},
		Spans:       ringA,
	})
	t.Cleanup(backendA.Close)
	rn, err := Connect(srvB.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rn.Close() })
	if _, _, err := backendA.AddRemote(rn); err != nil {
		t.Fatal(err)
	}
	srvA := startServer(t, backendA, ServerOptions{Spans: ringA})

	clientSpans := obs.NewSpanLog(64)
	clientSpans.SetNode("bench")
	clA := dialT(t, srvA.Addr(), ClientOptions{Spans: clientSpans})
	clB := dialT(t, srvB.Addr(), ClientOptions{})

	trace := obs.NewTraceID()
	if err := clA.PutTraced(trace, 0, []byte("replicated-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Collect: the client's own root span plus both processes' rings,
	// fetched over the wire like a real collector.
	spans := clientSpans.ByTrace(trace)
	spans = append(spans, pollSpans(t, 2, func() ([]obs.Span, error) { return clA.FetchSpans(trace) })...)
	spans = append(spans, pollSpans(t, 1, func() ([]obs.Span, error) { return clB.FetchSpans(trace) })...)

	tr := obs.Assemble(trace, spans)
	if tr == nil {
		t.Fatalf("no spans assembled for trace %d (collected %d)", trace, len(spans))
	}
	if tr.Missing != 0 || tr.Root.Synthetic {
		t.Fatalf("fragmented trace: missing=%d syntheticRoot=%v spans=%d", tr.Missing, tr.Root.Synthetic, tr.Spans)
	}
	path := tr.CriticalPath()
	if len(path) < 4 {
		t.Fatalf("critical path %d hops, want the 4-hop client→primary→cluster→replica chain", len(path))
	}
	// Exact parentage down the chain.
	wantNames := []string{"client/put", "server/put", "cluster/write"}
	for i, want := range wantNames {
		if path[i].Span.Name != want {
			t.Fatalf("path[%d] = %q, want %q (path %v)", i, path[i].Span.Name, want, names(path))
		}
	}
	if !strings.HasPrefix(path[3].Span.Name, "server/") {
		t.Fatalf("replica hop = %q, want a server/ span (path %v)", path[3].Span.Name, names(path))
	}
	for i := 1; i < 4; i++ {
		if path[i].Span.Parent != path[i-1].Span.ID {
			t.Fatalf("hop %d (%s) parent %d, want %d (%s)",
				i, path[i].Span.Name, path[i].Span.Parent, path[i-1].Span.ID, path[i-1].Span.Name)
		}
	}
	// Phase breakdown: the primary's server span splits queue/exec, the
	// cluster hop splits exec/replicate, and replicate is nonzero — the
	// replica RPC happened inside it.
	phases := map[string]time.Duration{}
	for _, n := range path {
		for _, p := range n.Span.Phases {
			phases[p.Name] += p.Dur
		}
	}
	for _, name := range []string{"queue", "exec", "replicate"} {
		if phases[name] <= 0 {
			t.Fatalf("phase %q absent or zero along the critical path: %v", name, phases)
		}
	}
	if cp, root := tr.CriticalPathDuration(), tr.Root.Span.Dur; cp > root {
		t.Fatalf("critical path %v exceeds root %v", cp, root)
	}
	if attr := tr.PhaseAttribution(); attr["replicate"] <= 0 {
		t.Fatalf("attribution lost the replicate phase: %v", attr)
	}
}

func names(path []*obs.TraceNode) []string {
	out := make([]string, len(path))
	for i, n := range path {
		out[i] = n.Span.Name
	}
	return out
}

// TestTraceMidRequestFailover downs one of two replicated members and
// asserts a traced write batch leaves the degraded-path annotations in
// the trace: cluster/failover where a key's primary was routed around,
// cluster/hint where a replica leg was deferred to hinted handoff — and
// that the collection still assembles.
func TestTraceMidRequestFailover(t *testing.T) {
	srvA := startServer(t, newShard(t, 1), ServerOptions{})
	srvB := startServer(t, newShard(t, 1), ServerOptions{})

	coordSpans := obs.NewSpanLog(256)
	coordSpans.SetNode("coord")
	coord := cluster.NewEmpty(cluster.Config{
		Replication:   2,
		ProbeInterval: -1, // detection driven by the test
		ProbeFailures: 1,
		Spans:         coordSpans,
	})
	defer coord.Close()
	for _, addr := range []string{srvA.Addr(), srvB.Addr()} {
		rn, err := Connect(addr, ClientOptions{Timeout: 2 * time.Second, DialTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rn.Close() })
		if _, _, err := coord.AddRemote(rn); err != nil {
			t.Fatal(err)
		}
	}

	// Down the second member and let the detector notice.
	srvB.Close()
	coord.Probe()
	if len(coord.DownMembers()) != 1 {
		t.Fatalf("down members = %v, want exactly one", coord.DownMembers())
	}

	trace := obs.NewTraceID()
	ops := make([]cluster.Op, 32)
	for i := range ops {
		ops[i] = cluster.Op{
			Kind: cluster.OpPut, Trace: trace, Parent: 77,
			Key:   []byte{'f', 'o', byte(i)},
			Value: []byte("v"),
		}
	}
	if _, err := coord.Apply(ops); err != nil {
		t.Fatal(err)
	}

	spans := coordSpans.ByTrace(trace)
	var failovers, hints, writes int
	for _, s := range spans {
		switch s.Name {
		case "cluster/failover":
			failovers++
			if s.Parent != 77 {
				t.Fatalf("failover span parent %d, want the caller's 77", s.Parent)
			}
		case "cluster/hint":
			hints++
			if len(s.Phases) != 1 || s.Phases[0].Name != "hinted-handoff" {
				t.Fatalf("hint span lacks the hinted-handoff phase: %+v", s)
			}
		case "cluster/write":
			writes++
		}
	}
	// Every key's replica leg to the down member defers to hints; with 32
	// uniformly hashed keys at least one key's primary was the down
	// member, so at least one write was rerouted.
	if failovers == 0 || hints == 0 || writes == 0 {
		t.Fatalf("degraded-path spans missing: failover=%d hint=%d write=%d (of %d spans)",
			failovers, hints, writes, len(spans))
	}

	// The degraded collection still assembles: fragments hang under a
	// synthetic root, and the critical-path bound holds.
	tr := obs.Assemble(trace, spans)
	if tr == nil {
		t.Fatal("degraded trace did not assemble")
	}
	if cp, root := tr.CriticalPathDuration(), tr.Root.Span.Dur; cp > root {
		t.Fatalf("critical path %v exceeds root %v", cp, root)
	}
}
