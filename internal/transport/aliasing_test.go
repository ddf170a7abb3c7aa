// Aliasing-safety coverage for the pooled hot path (DESIGN.md §12).
// Pooled frames are recycled the moment their owner releases them, so
// any result that secretly aliased a frame would be scribbled over by
// the next request. These tests hammer exactly those hand-off points:
// concurrent pipelined clients sharing one pool, the PR-4 hinted-handoff
// path where a write outlives the frame that carried it, and a fuzz
// property pinning pooled decode to fresh-buffer semantics. The stress
// test is most valuable under `go test -race`, which the CI race job
// runs.
package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// stressValue derives the one value a key may ever hold, so any
// cross-request buffer reuse shows up as a key paired with some other
// key's value.
func stressValue(key []byte) []byte {
	return fmt.Appendf(nil, "val:%s:val", key)
}

// TestPipelinedClientAliasing drives many goroutines through one pooled
// client against a real server and checks every Get, Apply, and Scan
// result for cross-talk between concurrently in-flight frames. Each
// worker scans into one reused slice and re-checks the last scan's rows
// after each of its later round trips, by which time the frame that
// carried them is back in the pool and serving other requests.
func TestPipelinedClientAliasing(t *testing.T) {
	backend := newShard(t, 2)
	t.Cleanup(func() { backend.Close() })
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{Conns: 2})

	const (
		workers = 8
		iters   = 150
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]cluster.Op, 0, 4)
			res := make([]cluster.OpResult, 4)
			var rows []engine.Entry // the last scan's rows, slice reused
			rowsOK := func(when string) error {
				for _, e := range rows {
					if !bytes.Equal(e.Value, stressValue(e.Key)) {
						return fmt.Errorf("worker %d scan entry %s %s: got %q", w, e.Key, when, e.Value)
					}
				}
				return nil
			}
			for i := 0; i < iters; i++ {
				key := fmt.Appendf(nil, "stress-%02d-%03d", w, i%32)
				want := stressValue(key)
				if err := cl.Put(key, want); err != nil {
					errc <- fmt.Errorf("worker %d put: %w", w, err)
					return
				}
				if err := rowsOK("after a later put"); err != nil {
					errc <- err
					return
				}
				got, found, err := cl.Get(key)
				if err != nil || !found {
					errc <- fmt.Errorf("worker %d get %s: found=%v err=%v", w, key, found, err)
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("worker %d key %s: got %q, want %q", w, key, got, want)
					return
				}
				// A small pipelined batch: a write plus reads of keys other
				// workers are rewriting right now.
				ops = ops[:0]
				ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: key, Value: want})
				for p := 1; p < 4; p++ {
					peer := fmt.Appendf(nil, "stress-%02d-%03d", (w+p)%workers, i%32)
					ops = append(ops, cluster.Op{Kind: cluster.OpGet, Key: peer})
				}
				out, err := cl.Apply(ops)
				if err != nil {
					errc <- fmt.Errorf("worker %d apply: %w", w, err)
					return
				}
				copy(res, out)
				for j := 1; j < len(ops); j++ {
					if res[j].Found && !bytes.Equal(res[j].Value, stressValue(ops[j].Key)) {
						errc <- fmt.Errorf("worker %d batch read %s: got %q", w, ops[j].Key, res[j].Value)
						return
					}
				}
				if err := rowsOK("after a later batch"); err != nil {
					errc <- err
					return
				}
				if i%4 == 0 {
					rows, err = cl.AppendScan(rows[:0], []byte("stress-"), 64)
					if err != nil {
						errc <- fmt.Errorf("worker %d scan: %w", w, err)
						return
					}
					if err := rowsOK("on return"); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHintedHandoffOutlivesFrame exercises the PR-4 failover path over
// the real transport: the server dies, writes fail over to the replica
// and are buffered as hints — long after the pooled frames that carried
// them have been recycled — then the server restarts on the same
// address and the replayed hints must land byte-exact.
func TestHintedHandoffOutlivesFrame(t *testing.T) {
	remoteStore := newShard(t, 1)
	t.Cleanup(func() { remoteStore.Close() })
	srv, err := Listen("127.0.0.1:0", remoteStore, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl := dialT(t, addr, ClientOptions{Conns: 1})

	coord := cluster.New(cluster.Config{
		Shards:        1,
		Replication:   2,
		ProbeInterval: -1, // manual probes keep the test deterministic
		ProbeFailures: 1,
		Engine:        engine.Options{MemtableBytes: 32 << 10},
	})
	t.Cleanup(func() { coord.Close() })
	id, _, err := coord.AddRemote(cl)
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	key := func(i int) []byte { return fmt.Appendf(nil, "hint-%03d", i) }
	val := func(i, gen int) []byte { return fmt.Appendf(nil, "gen%d-value-%03d", gen, i) }
	for i := 0; i < n; i++ {
		if err := coord.Put(key(i), val(i, 1)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the server and let the failure detector flip the member.
	srv.Close()
	coord.Probe()
	if !coord.MemberDown(id) {
		t.Fatal("remote member not marked down after failed probe")
	}

	// Gen-2 writes: with R=2 over two members every key has the remote
	// in its owner set, so each write either fails over from the dead
	// primary or loses its replica mirror — both buffer a hint. The
	// transport frames that carried the failed RPCs are back in the pool
	// well before replay; the hints must hold their own copies.
	for i := 0; i < n; i++ {
		if err := coord.Put(key(i), val(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	pending := uint64(0)
	for _, ns := range coord.Stats().Nodes {
		pending += ns.HintsPending
	}
	if pending == 0 {
		t.Fatal("no hints buffered while remote was down")
	}

	// Restart on the same address; probes redial, detect recovery, and
	// replay the backlog.
	srv2, err := Listen(addr, remoteStore, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for coord.MemberDown(id) {
		if time.Now().After(deadline) {
			t.Fatal("remote member did not recover after restart")
		}
		coord.Probe()
		time.Sleep(10 * time.Millisecond)
	}

	replayed := uint64(0)
	for _, ns := range coord.Stats().Nodes {
		replayed += ns.HintsReplayed
	}
	if replayed == 0 {
		t.Fatal("no hints replayed after recovery")
	}
	// The replayed writes must be byte-exact on the remote's own store —
	// not just through the coordinator, which could mask a corrupt
	// replica by serving the healthy one.
	for i := 0; i < n; i++ {
		got, ok := remoteStore.Get(key(i))
		if !ok {
			t.Fatalf("key %s missing from remote store after replay", key(i))
		}
		if want := val(i, 2); !bytes.Equal(got, want) {
			t.Fatalf("key %s: remote has %q, want %q", key(i), got, want)
		}
	}
}

// FuzzDecodeBatchAppend pins pooled decode to fresh-buffer semantics:
// decoding any payload into a recycled destination slice must yield
// exactly what a fresh decode yields — same ops, same error — no matter
// what the previous occupant left behind.
func FuzzDecodeBatchAppend(f *testing.F) {
	seed := []cluster.Op{
		{Kind: cluster.OpPut, Key: []byte("alpha"), Value: []byte("one")},
		{Kind: cluster.OpGet, Key: []byte("beta")},
		{Kind: cluster.OpDelete, Key: []byte("gamma")},
	}
	f.Add(EncodeBatch(nil, seed, false))
	f.Add(EncodeBatch(nil, seed[:1], true))
	f.Add(EncodeBatch(nil, nil, false))
	f.Add([]byte{0, 0, 0, 3}) // count with no ops behind it
	f.Add([]byte{})

	dirty := make([]cluster.Op, 0, 8)
	for i := 0; i < 8; i++ {
		dirty = append(dirty, cluster.Op{
			Kind:  cluster.OpPut,
			Key:   fmt.Appendf(nil, "stale-key-%d", i),
			Value: fmt.Appendf(nil, "stale-value-%d", i),
		})
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		fresh, freshTry, freshErr := DecodeBatch(p)
		reused, reusedTry, reusedErr := DecodeBatchAppend(dirty[:0], p)
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("error mismatch: fresh=%v reused=%v", freshErr, reusedErr)
		}
		if freshErr != nil {
			return
		}
		if freshTry != reusedTry || len(fresh) != len(reused) {
			t.Fatalf("shape mismatch: fresh try=%v n=%d, reused try=%v n=%d",
				freshTry, len(fresh), reusedTry, len(reused))
		}
		for i := range fresh {
			if fresh[i].Kind != reused[i].Kind ||
				!bytes.Equal(fresh[i].Key, reused[i].Key) ||
				!bytes.Equal(fresh[i].Value, reused[i].Value) {
				t.Fatalf("op %d mismatch: fresh=%+v reused=%+v", i, fresh[i], reused[i])
			}
		}
	})
}

// TestPutBatchClearsScratch pins the batch scratch's release: once
// putBatch returns, no slot the request wrote may still reference the
// request frame (decoded keys and values) or engine records (result
// values). It walks the server's two outcomes: a served batch releases
// len(ops) slots, and a failed decode — which wrote an unknown prefix
// past len(sc.ops) — releases cap(sc.ops).
func TestPutBatchClearsScratch(t *testing.T) {
	batch := func(n int) []byte {
		ops := make([]cluster.Op, n)
		for i := range ops {
			ops[i] = cluster.Op{Kind: cluster.OpPut, Key: fmt.Appendf(nil, "k%d", i), Value: []byte("frame-bytes")}
		}
		return EncodeBatch(nil, ops, false)
	}
	assertClear := func(when string, sc *batchScratch) {
		t.Helper()
		for i, op := range sc.ops[:cap(sc.ops)] {
			if op.Key != nil || op.Value != nil {
				t.Fatalf("%s: ops[%d] still references %q=%q", when, i, op.Key, op.Value)
			}
		}
		for i, r := range sc.res[:cap(sc.res)] {
			if r.Value != nil {
				t.Fatalf("%s: res[%d] still references %q", when, i, r.Value)
			}
		}
	}

	// No server runs during this test, so nothing takes a released
	// scratch back out of the pool before the assertions read it.
	sc := &batchScratch{ops: make([]cluster.Op, 0, 8), res: make([]cluster.OpResult, 8)}
	ops, _, err := DecodeBatchAppend(sc.ops[:0], batch(3))
	if err != nil {
		t.Fatal(err)
	}
	sc.ops = ops
	for i := range ops {
		sc.res[i] = cluster.OpResult{Value: []byte("engine-record"), Found: true}
	}
	putBatch(sc, len(ops))
	assertClear("served batch", sc)

	sc = &batchScratch{ops: make([]cluster.Op, 0, 8)}
	full := batch(4)
	if _, _, err := DecodeBatchAppend(sc.ops[:0], full[:len(full)-1]); err == nil {
		t.Fatal("truncated batch decoded")
	}
	if sc.ops[:cap(sc.ops)][2].Key == nil {
		t.Fatal("the failed decode left nothing behind; the case lost its point")
	}
	putBatch(sc, cap(sc.ops))
	assertClear("failed decode", sc)
}
