package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func TestTracedFrameWireForm(t *testing.T) {
	payload := []byte("hello")
	// Zero trace is bit-identical to the untraced encoding — the old
	// protocol, so untraced traffic interoperates with old peers.
	if got, want := AppendTracedFrame(nil, 7, OpGet, 0, 0, payload), AppendFrame(nil, 7, OpGet, payload); string(got) != string(want) {
		t.Fatalf("zero-trace frame differs from plain frame:\n%x\n%x", got, want)
	}
	frame := AppendTracedFrame(nil, 7, OpGet, 42, 17, payload)
	if frame[12]&byte(opFlagTraced) == 0 {
		t.Fatal("traced frame missing the trace flag bit")
	}
	op, trace, parent, _, rest, err := splitExt(Opcode(frame[12]), frame[13:])
	if err != nil || op != OpGet || trace != 42 || parent != 17 || string(rest) != "hello" {
		t.Fatalf("splitExt = (%v, %d, %d, %q, %v)", op, trace, parent, rest, err)
	}
	// A traced frame with a truncated extension is malformed, not a crash.
	if _, _, _, _, _, err := splitExt(OpGet|opFlagTraced, []byte{1, 2, 3}); err == nil {
		t.Fatal("short traced payload accepted")
	}
	if _, _, _, _, _, err := splitExt(OpGet|opFlagTraced, frame[13:25]); err == nil {
		t.Fatal("trace-only (parentless) extension accepted")
	}
	// Responses never carry the flag: 0x40 overlaps RespError's bit
	// pattern, so splitExt must pass responses through untouched.
	op, trace, parent, _, _, err = splitExt(RespError, []byte{9})
	if err != nil || op != RespError || trace != 0 || parent != 0 {
		t.Fatalf("response opcode mangled: (%v, %d, %d, %v)", op, trace, parent, err)
	}
}

// TestTracePropagationAcrossNodes drives one traced replicated write and
// one traced read through a coordinator fanning out to two server
// processes, then asserts the same trace id shows up in the span logs of
// every hop: client-side roundtrips, the primary's server, and the
// replica's server (reached only via coordinator-internal mirroring).
func TestTracePropagationAcrossNodes(t *testing.T) {
	srvA := startServer(t, newShard(t, 1), ServerOptions{})
	srvB := startServer(t, newShard(t, 1), ServerOptions{})

	clientSpans := obs.NewSpanLog(64)
	coord := cluster.NewEmpty(cluster.Config{Replication: 2})
	defer coord.Close()
	for _, addr := range []string{srvA.Addr(), srvB.Addr()} {
		rn, err := Connect(addr, ClientOptions{Spans: clientSpans})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rn.Close() })
		if _, _, err := coord.AddRemote(rn); err != nil {
			t.Fatal(err)
		}
	}

	trace := obs.NewTraceID()
	ops := []cluster.Op{
		{Kind: cluster.OpPut, Key: []byte("traced-key"), Value: []byte("v"), Trace: trace},
		{Kind: cluster.OpGet, Key: []byte("traced-key"), Trace: trace},
	}
	res, err := coord.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if string(res[1].Value) != "v" {
		t.Fatalf("traced get returned %q", res[1].Value)
	}

	for name, srv := range map[string]*Server{"primary-or-replica A": srvA, "primary-or-replica B": srvB} {
		spans := srv.Spans().ByTrace(trace)
		if len(spans) == 0 {
			t.Fatalf("%s recorded no spans for trace %d (log: %v)", name, trace, srv.Spans().Spans())
		}
		for _, s := range spans {
			if !strings.HasPrefix(s.Name, "server/") {
				t.Fatalf("%s span name %q lacks the server/ prefix", name, s.Name)
			}
		}
	}
	if got := clientSpans.ByTrace(trace); len(got) == 0 {
		t.Fatalf("client recorded no spans for trace %d", trace)
	}
	// An untraced request must not land in any span log.
	if err := coord.Put([]byte("untraced"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{srvA, srvB} {
		for _, s := range srv.Spans().Spans() {
			if s.Trace == 0 {
				t.Fatalf("untraced request leaked into the span log: %+v", s)
			}
		}
	}
}

func TestSlowRequestLog(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	srv := startServer(t, backend, ServerOptions{SlowRequest: time.Nanosecond})
	cl := dialT(t, srv.Addr(), ClientOptions{})
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.SlowLog().Total() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	spans := srv.SlowLog().Spans()
	if len(spans) == 0 {
		t.Fatal("1ns threshold recorded no slow requests")
	}
	if spans[0].Trace != 0 {
		t.Fatalf("untraced slow request carries trace %d", spans[0].Trace)
	}
	if spans[0].Name != "server/put" {
		t.Fatalf("slow span name = %q, want server/put", spans[0].Name)
	}
}

func TestServerClientMetricsExposition(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{})

	if err := cl.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.GetTraced(obs.NewTraceID(), 0, []byte("a")); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	cl.RegisterMetrics(reg, obs.Labels{"peer": srv.Addr()})
	// Responses may still be in flight when the client returns; poll the
	// snapshot until the server's observe side caught up.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := reg.Snapshot(); s[`bd_transport_requests_total{op="get"}`].Uint() >= 1 &&
			s[`bd_transport_requests_total{op="put"}`].Uint() >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := reg.Snapshot()
	for _, key := range []string{
		`bd_transport_requests_total{op="get"}`,
		`bd_transport_requests_total{op="put"}`,
		`bd_transport_bytes_total{dir="in"}`,
		`bd_transport_bytes_total{dir="out"}`,
		"bd_transport_traced_requests_total",
		"bd_transport_request_seconds_count",
	} {
		if snap[key].Uint() < 1 {
			t.Errorf("%s = %v, want >= 1 (snapshot %v)", key, snap[key], snap)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE bd_transport_requests_total counter",
		"# TYPE bd_transport_request_seconds histogram",
		"bd_transport_client_retries_total{peer=",
	} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("exposition missing %q:\n%s", frag, b.String())
		}
	}
}
