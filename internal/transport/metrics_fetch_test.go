package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFetchMetricsOverWire round-trips a full registry snapshot through
// OpMetricsFetch: the decoded snapshot must carry the server's exact
// counter values and histogram buckets, not float approximations.
func TestFetchMetricsOverWire(t *testing.T) {
	reg := obs.NewRegistry()
	big := reg.Counter("bd_big_total", "t", nil)
	big.Add(1<<60 + 3) // above 2^53: float64 coercion would corrupt it
	reg.Histogram("bd_big_seconds", "t", nil).Observe(5 * time.Microsecond)

	srv := startServer(t, newShard(t, 1), ServerOptions{Metrics: reg})
	cl, err := Connect(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	snap, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Node != srv.Addr() {
		t.Fatalf("snapshot node = %q, want the server address %q", snap.Node, srv.Addr())
	}
	if v, ok := snap.Lookup("bd_big_total", ""); !ok || v != obs.Uint64Value(1<<60+3) {
		t.Fatalf("counter over the wire = %v, want exact 2^60+3", v)
	}
	hs := snap.Family("bd_big_seconds").Get("")
	if hs == nil || hs.Count != 1 || hs.Buckets[3] != 1 {
		t.Fatalf("histogram buckets lost in transit: %+v", hs)
	}
	// The server's own instrumentation rides in the same registry once
	// registered — do a second fetch and expect to see the first.
	nreg := obs.NewRegistry()
	srv.RegisterMetrics(nreg)
	srv2 := startServer(t, newShard(t, 1), ServerOptions{Metrics: nreg})
	cl2, err := Connect(srv2.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	snap2, err := cl2.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap2.Lookup("bd_transport_requests_total", `{op="metrics-fetch"}`); !ok || v.Uint() < 1 {
		t.Fatalf("first server's fetch counter not visible via second: %v ok=%v", v, ok)
	}
}

// TestFetchEventsOverWire round-trips the event ring, and checks the
// nil-log server serves an empty timeline rather than an error.
func TestFetchEventsOverWire(t *testing.T) {
	log := obs.NewEventLog(32)
	log.SetNode("srv-a")
	log.Record(obs.Event{Kind: obs.EventViewCommit, Epoch: 2, Detail: "joined"})
	log.Record(obs.Event{Kind: obs.EventMemberDown, Member: "peer-b"})

	srv := startServer(t, newShard(t, 1), ServerOptions{Events: log})
	cl, err := Connect(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	events, err := cl.FetchEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("fetched %d events, want 2", len(events))
	}
	if events[0].Kind != obs.EventViewCommit || events[0].Node != "srv-a" || events[0].Epoch != 2 {
		t.Fatalf("event 0 mangled: %+v", events[0])
	}
	if events[1].Kind != obs.EventMemberDown || events[1].Member != "peer-b" {
		t.Fatalf("event 1 mangled: %+v", events[1])
	}

	bare := startServer(t, newShard(t, 1), ServerOptions{})
	cl2, err := Connect(bare.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if events, err := cl2.FetchEvents(); err != nil || len(events) != 0 {
		t.Fatalf("eventless server: got %d events, err=%v; want empty and nil", len(events), err)
	}
	// Metrics on a registry-less server: an empty snapshot, not an error.
	if snap, err := cl2.FetchMetrics(); err != nil || len(snap.Fams) != 0 {
		t.Fatalf("registry-less server: snap=%+v err=%v", snap, err)
	}
}

// TestClientImplementsFetcher pins the interface the Federator dials.
func TestClientImplementsFetcher(t *testing.T) {
	var _ obs.Fetcher = (*Client)(nil)
	// A request is named by its bare opcode whichever extension flags
	// (trace context, view epoch) ride on it.
	for _, op := range []Opcode{OpMetricsFetch, OpEventsFetch, OpGet | opFlagEpoch, OpBatch | opFlagTraced | opFlagEpoch} {
		if name := opName(op); strings.HasPrefix(name, "op(") {
			t.Fatalf("opcode %#x has no name", byte(op))
		}
	}
}
