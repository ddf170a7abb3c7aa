package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

func newShard(t testing.TB, shards int) *cluster.Cluster {
	t.Helper()
	return cluster.New(cluster.Config{
		Shards: shards,
		Engine: engine.Options{MemtableBytes: 32 << 10},
	})
}

// startServer hosts a backend on a loopback port and tears it down with
// the test.
func startServer(t testing.TB, b Backend, opts ServerOptions) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", b, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialT(t testing.TB, addr string, opts ClientOptions) *Client {
	t.Helper()
	cl, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// hookBackend wraps a Backend with test hooks, settable mid-test from
// the test goroutine while server goroutines read them.
type hookBackend struct {
	Backend
	mu       sync.Mutex
	onGet    func()       // runs inside Get, before delegation
	tryApply func() error // non-nil result overrides TryApplyInto
	apply    func() error // non-nil result overrides ApplyInto
}

func (h *hookBackend) setTryApply(fn func() error) {
	h.mu.Lock()
	h.tryApply = fn
	h.mu.Unlock()
}

func (h *hookBackend) setApply(fn func() error) {
	h.mu.Lock()
	h.apply = fn
	h.mu.Unlock()
}

func (h *hookBackend) ApplyInto(ops []cluster.Op, res []cluster.OpResult) error {
	h.mu.Lock()
	hook := h.apply
	h.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return h.Backend.ApplyInto(ops, res)
}

func (h *hookBackend) setOnGet(fn func()) {
	h.mu.Lock()
	h.onGet = fn
	h.mu.Unlock()
}

func (h *hookBackend) Get(key []byte) ([]byte, bool) {
	h.mu.Lock()
	hook := h.onGet
	h.mu.Unlock()
	if hook != nil {
		hook()
	}
	return h.Backend.Get(key)
}

func (h *hookBackend) TryApplyInto(ops []cluster.Op, res []cluster.OpResult) error {
	h.mu.Lock()
	hook := h.tryApply
	h.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return h.Backend.TryApplyInto(ops, res)
}

// TestClientServerOps drives every opcode end to end over a real socket.
func TestClientServerOps(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{})

	if err := cl.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get([]byte("alpha")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, err := cl.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = %v, %v", ok, err)
	}
	if err := cl.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get([]byte("alpha")); ok {
		t.Fatal("deleted key still readable")
	}

	var ops []cluster.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, cluster.Op{Kind: cluster.OpPut,
			Key: []byte(fmt.Sprintf("b-%03d", i)), Value: []byte{byte(i)}})
	}
	if _, err := cl.Apply(ops); err != nil {
		t.Fatal(err)
	}
	reads := make([]cluster.Op, 100)
	for i := range reads {
		reads[i] = cluster.Op{Kind: cluster.OpGet, Key: []byte(fmt.Sprintf("b-%03d", i))}
	}
	res, err := cl.TryApply(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Fatalf("batched read %d = %+v", i, r)
		}
	}

	entries, err := cl.Scan([]byte("b-"), 10)
	if err != nil || len(entries) != 10 {
		t.Fatalf("Scan = %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if string(e.Key) != fmt.Sprintf("b-%03d", i) {
			t.Fatalf("scan entry %d = %q", i, e.Key)
		}
	}

	if st := backend.Stats(); len(st.Nodes) != 1 || st.Nodes[0].Store.Puts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if srv.Served() == 0 {
		t.Fatal("server counted no requests")
	}
}

// TestPipelining issues many concurrent requests over one connection and
// checks every response resolves to its own request's key — the id
// matching that makes pipelined frames safe.
func TestPipelining(t *testing.T) {
	backend := newShard(t, 2)
	defer backend.Close()
	for i := 0; i < 512; i++ {
		backend.Put([]byte(fmt.Sprintf("p-%04d", i)), []byte(fmt.Sprintf("v-%04d", i)))
	}
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{Conns: 1})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w*50 + i) % 512
				v, ok, err := cl.Get([]byte(fmt.Sprintf("p-%04d", k)))
				if err != nil || !ok || string(v) != fmt.Sprintf("v-%04d", k) {
					errs <- fmt.Errorf("worker %d: Get(%d) = %q, %v, %v", w, k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRemoteNodeConformance is the acceptance scenario: a coordinator
// whose two shards are served by separate transport.Server instances
// must pass the cluster conformance behaviors through RemoteNode —
// read-your-writes, positional batches, scatter-gather scans, and
// ErrOverload propagation.
func TestRemoteNodeConformance(t *testing.T) {
	shard1, shard2 := newShard(t, 1), newShard(t, 1)
	defer shard1.Close()
	defer shard2.Close()
	hooked := &hookBackend{Backend: shard2}
	srv1 := startServer(t, shard1, ServerOptions{})
	srv2 := startServer(t, hooked, ServerOptions{})

	coord := cluster.NewEmpty(cluster.Config{})
	defer coord.Close()
	for _, srv := range []*Server{srv1, srv2} {
		rn, err := Connect(srv.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := coord.AddRemote(rn); err != nil {
			t.Fatal(err)
		}
	}
	if coord.Nodes() != 2 {
		t.Fatalf("members = %d, want 2", coord.Nodes())
	}

	// Read-your-writes through the sockets.
	ref, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("net-%04d", i))
		val := []byte(fmt.Sprintf("v%d", i))
		coord.Put(key, val)
		ref.Put(key, val)
		if got, ok := coord.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("read-your-writes violated for %q: %q, %v", key, got, ok)
		}
	}
	// Both remote shards hold a share.
	for i, shard := range []*cluster.Cluster{shard1, shard2} {
		if shard.Stats().Nodes[0].Store.Puts == 0 {
			t.Fatalf("shard %d received no writes", i+1)
		}
	}

	// Positional batches through the queues and the wire.
	reads := make([]cluster.Op, 128)
	for i := range reads {
		reads[i] = cluster.Op{Kind: cluster.OpGet, Key: []byte(fmt.Sprintf("net-%04d", i))}
	}
	res, err := coord.Apply(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found || !bytes.Equal(r.Value, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("batched read %d = %+v", i, r)
		}
	}

	// Scatter-gather scans merge the two remote partials in key order.
	for _, start := range []string{"", "net-0300", "zzz"} {
		got, err := coord.Scan([]byte(start), 64)
		if err != nil {
			t.Fatalf("scan(%q): %v", start, err)
		}
		want := ref.Scan([]byte(start), 64)
		if len(got) != len(want) {
			t.Fatalf("scan(%q) len = %d, want %d", start, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("scan(%q)[%d] = %q, want %q", start, i, got[i].Key, want[i].Key)
			}
		}
	}

	// A remote shard shedding under admission control surfaces as
	// ErrOverload at the coordinator, across the wire. Find a key the
	// hooked shard (srv2) owns: write through the coordinator, then ask
	// the shard directly whether it landed there.
	probe := dialT(t, srv2.Addr(), ClientOptions{})
	var shedKey []byte
	for i := 0; i <= 200; i++ {
		k := []byte(fmt.Sprintf("shed-%04d", i))
		coord.Put(k, []byte("v"))
		if _, ok, err := probe.Get(k); err == nil && ok {
			shedKey = k
			break
		}
	}
	if shedKey == nil {
		t.Fatal("no key routed to the hooked shard")
	}
	hooked.setTryApply(func() error { return cluster.ErrOverload })
	if _, err := coord.TryApply([]cluster.Op{{Kind: cluster.OpPut, Key: shedKey, Value: []byte("v")}}); !errors.Is(err, cluster.ErrOverload) {
		t.Fatalf("TryApply = %v, want ErrOverload", err)
	}
	hooked.setTryApply(nil)
	if _, err := coord.TryApply([]cluster.Op{{Kind: cluster.OpPut, Key: shedKey, Value: []byte("v2")}}); err != nil {
		t.Fatalf("TryApply after shed cleared: %v", err)
	}
}

// parkGets issues maxInFlight Gets through cl and returns once every
// one of them holds an admission permit inside backend's onGet hook,
// which must signal entered and then block. The returned channel yields
// each parked Get's error once the hook lets it go.
func parkGets(cl *Client, entered <-chan struct{}) <-chan error {
	done := make(chan error, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		go func(i int) {
			_, _, err := cl.Get([]byte(fmt.Sprintf("slow-%03d", i)))
			done <- err
		}(i)
	}
	for i := 0; i < maxInFlight; i++ {
		<-entered
	}
	return done
}

// TestServerAdmissionControl pins the bounded in-flight behavior: with
// maxInFlight requests parked in the backend, the next request is shed
// with cluster.ErrOverload instead of queueing.
func TestServerAdmissionControl(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, maxInFlight)
	hooked := &hookBackend{Backend: backend, onGet: func() {
		entered <- struct{}{}
		<-gate
	}}
	srv := startServer(t, hooked, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{RetryOverload: -1}) // no retries: observe the shed

	done := parkGets(cl, entered) // the slow requests hold every in-flight token
	if _, _, err := cl.Get([]byte("fast")); !errors.Is(err, cluster.ErrOverload) {
		t.Fatalf("Get under full admission = %v, want ErrOverload", err)
	}
	if srv.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}
	close(gate)
	for i := 0; i < maxInFlight; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked request failed: %v", err)
		}
	}

	// With retries enabled a shed request eventually lands once a token
	// frees: hold every token, let one more request be shed, then
	// release the parked ones.
	gate2 := make(chan struct{})
	hooked.setOnGet(func() {
		entered <- struct{}{}
		<-gate2
	})
	cl2 := dialT(t, srv.Addr(), ClientOptions{RetryOverload: 50})
	shedBefore := srv.Shed()
	parked := parkGets(cl2, entered)
	retried := make(chan error, 1)
	go func() {
		_, _, err := cl2.Get([]byte("retry"))
		retried <- err
	}()
	for srv.Shed() == shedBefore {
		time.Sleep(time.Millisecond)
	}
	close(gate2)
	if err := <-retried; err != nil {
		t.Fatalf("retry path: Get(retry): %v", err)
	}
	for i := 0; i < maxInFlight; i++ {
		if err := <-parked; err != nil {
			t.Fatalf("retry path: Get(slow): %v", err)
		}
	}
}

// TestGracefulDrain verifies Close lets an admitted request finish and
// flush before the connection dies, and refuses new work afterwards.
func TestGracefulDrain(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	backend.Put([]byte("k"), []byte("v"))
	entered := make(chan struct{})
	gate := make(chan struct{})
	hooked := &hookBackend{Backend: backend, onGet: func() {
		close(entered)
		<-gate
	}}
	srv := startServer(t, hooked, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{})

	done := make(chan error, 1)
	go func() {
		v, ok, err := cl.Get([]byte("k"))
		if err == nil && (!ok || string(v) != "v") {
			err = fmt.Errorf("drained response corrupted: %q, %v", v, ok)
		}
		done <- err
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must block on the in-flight request; give it a moment to
	// reach the drain, then release the backend.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	default:
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The drained server refuses new connections.
	if _, err := Dial(srv.Addr(), ClientOptions{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}

// TestClientTimeout pins the per-request deadline.
func TestClientTimeout(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	gate := make(chan struct{})
	defer close(gate)
	hooked := &hookBackend{Backend: backend, onGet: func() { <-gate }}
	srv := startServer(t, hooked, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{Timeout: 30 * time.Millisecond, RetryOverload: -1})
	if _, _, err := cl.Get([]byte("k")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get = %v, want ErrTimeout", err)
	}
}

// TestClientRedial pins that a dead connection does not poison the
// pool: after the server restarts on the same address, the next request
// revives the slot and succeeds.
func TestClientRedial(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	backend.Put([]byte("k"), []byte("v"))
	srv1, err := Listen("127.0.0.1:0", backend, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	cl := dialT(t, addr, ClientOptions{Timeout: 2 * time.Second})
	if _, ok, err := cl.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("Get before restart = %v, %v", ok, err)
	}
	srv1.Close()
	srv2, err := Listen(addr, backend, ServerOptions{})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// The first call may observe the dying connection; the client must
	// recover on its own within a couple of attempts.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		v, ok, err := cl.Get([]byte("k"))
		if err == nil && ok && string(v) == "v" {
			return
		}
		lastErr = err
	}
	t.Fatalf("client never recovered after server restart: %v", lastErr)
}

// TestApplyBackpressureNotShed pins that a full server sheds TryApply
// but never Apply: the blocking batch waits for a permit, exactly like
// the in-process queues.
func TestApplyBackpressureNotShed(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, maxInFlight)
	hooked := &hookBackend{Backend: backend, onGet: func() {
		entered <- struct{}{}
		<-gate
	}}
	srv := startServer(t, hooked, ServerOptions{})
	// Two connections: the parked Gets must not head-of-line-block the
	// Apply's own read loop.
	clPark := dialT(t, srv.Addr(), ClientOptions{RetryOverload: -1})
	clApply := dialT(t, srv.Addr(), ClientOptions{RetryOverload: -1})

	parked := parkGets(clPark, entered) // the Gets hold every permit

	ops := []cluster.Op{{Kind: cluster.OpPut, Key: []byte("bp"), Value: []byte("v")}}
	if _, err := clApply.TryApply(ops); !errors.Is(err, cluster.ErrOverload) {
		t.Fatalf("TryApply under full admission = %v, want ErrOverload", err)
	}
	applied := make(chan error, 1)
	go func() {
		_, err := clApply.Apply(ops)
		applied <- err
	}()
	select {
	case err := <-applied:
		t.Fatalf("Apply returned (%v) while the server was full; want it to block", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	if err := <-applied; err != nil {
		t.Fatalf("Apply after permit freed: %v", err)
	}
	for i := 0; i < maxInFlight; i++ {
		<-parked
	}
}

// TestScanBoundsAndTruncation pins the scan safety rails: a negative
// limit returns nothing (not a full-keyspace wrap), and a result set
// larger than the frame limit still comes back complete — the server
// cuts pages to fit the frame limit and flags them `more`, and the
// client paginates transparently. A short result therefore always means
// the range is exhausted (no holes in k-way merges).
func TestScanBoundsAndTruncation(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	// 64 values that together overflow one frame.
	val := bytes.Repeat([]byte("x"), DefaultMaxFrame/64+16<<10)
	for i := 0; i < 64; i++ {
		backend.Put([]byte(fmt.Sprintf("big-%02d", i)), val)
	}
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{})

	if entries, err := cl.Scan(nil, -5); err != nil || len(entries) != 0 {
		t.Fatalf("Scan(limit=-5) = %d entries, %v; want 0, nil", len(entries), err)
	}
	// 64 × 272 KiB > the 16 MiB frame limit: forced through `more` pages.
	entries, err := cl.Scan(nil, 100)
	if err != nil {
		t.Fatalf("oversized scan: %v", err)
	}
	if len(entries) != 64 {
		t.Fatalf("scan returned %d entries, want all 64 via pagination", len(entries))
	}
	for i, e := range entries {
		if !bytes.Equal(e.Key, []byte(fmt.Sprintf("big-%02d", i))) {
			t.Fatalf("entry %d = %q, pagination skipped or reordered keys", i, e.Key)
		}
	}
	// The limit is still honored across pages.
	if short, err := cl.Scan(nil, 10); err != nil || len(short) != 10 {
		t.Fatalf("Scan(limit=10) = %d entries, %v", len(short), err)
	}
}

// TestMalformedFrameRejected sends garbage and expects the server to
// answer with an error frame and hang up without crashing.
func TestMalformedFrameRejected(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{Timeout: time.Second})
	// An oversized frame kills the stream; the in-flight request must
	// resolve with a connection error, not hang.
	huge := make([]byte, DefaultMaxFrame+1)
	if err := cl.Put([]byte("k"), huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// The server survives and serves fresh connections.
	cl2 := dialT(t, srv.Addr(), ClientOptions{})
	if err := cl2.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("server did not survive malformed input: %v", err)
	}
}

// TestPingLiveness drives the health opcode end to end: a live server
// answers, a drained one does not, and a restart on the same address
// heals the probe — the round trip cluster probing is built on.
func TestPingLiveness(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	srv1, err := Listen("127.0.0.1:0", backend, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	cl := dialT(t, addr, ClientOptions{PingTimeout: 200 * time.Millisecond})
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping against live server: %v", err)
	}
	if !cl.Healthy() {
		t.Fatal("Healthy() = false with an established connection")
	}
	srv1.Close()
	// A dead server must fail the probe fast (bounded by PingTimeout,
	// not DialTimeout).
	start := time.Now()
	var pingErr error
	for attempt := 0; attempt < 3; attempt++ {
		if pingErr = cl.Ping(); pingErr != nil {
			break
		}
	}
	if pingErr == nil {
		t.Fatal("ping against closed server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-server ping took %v, want fast failure", elapsed)
	}
	srv2, err := Listen(addr, backend, ServerOptions{})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ping never recovered after server restart")
		}
	}
}

// TestPingBypassesAdmission pins that liveness is answered even when
// every in-flight permit is held: an overloaded server is alive, and a
// prober that can be shed would see phantom deaths under load.
func TestPingBypassesAdmission(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, maxInFlight)
	hooked := &hookBackend{Backend: backend, onGet: func() {
		entered <- struct{}{}
		<-gate
	}}
	srv := startServer(t, hooked, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{RetryOverload: -1})
	done := parkGets(cl, entered) // the Gets hold every permit
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping under full admission = %v, want success", err)
	}
	close(gate)
	for i := 0; i < maxInFlight; i++ {
		<-done
	}
}

// TestRetryBackoffBounded pins the backoff cap: a client retrying a
// persistently overloaded server must bound each sleep by
// retryBackoffMax and the total sleep by Timeout, instead of doubling
// without limit.
func TestRetryBackoffBounded(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	hooked := &hookBackend{Backend: backend}
	hooked.setApply(func() error { return cluster.ErrOverload })
	srv := startServer(t, hooked, ServerOptions{})
	// 64 attempts of unbounded doubling from retryBackoff would sleep
	// for centuries; with the cap and the Timeout budget the whole call
	// must resolve in roughly Timeout.
	cl := dialT(t, srv.Addr(), ClientOptions{
		Timeout:       100 * time.Millisecond,
		RetryOverload: 64,
	})
	start := time.Now()
	_, err := cl.Apply([]cluster.Op{{Kind: cluster.OpPut, Key: []byte("k"), Value: []byte("v")}})
	elapsed := time.Since(start)
	if !errors.Is(err, cluster.ErrOverload) {
		t.Fatalf("Apply against permanently overloaded server = %v, want ErrOverload", err)
	}
	if elapsed > time.Second {
		t.Fatalf("retry loop ran %v, want it bounded near the 100ms timeout budget", elapsed)
	}
}
