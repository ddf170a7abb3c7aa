package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// replicatedTopology is the kv-update-r2 shape in miniature: a routing
// coordinator over two single-shard servers on loopback, each with its
// own registry. The prober is off so the only frames the servers count
// are the ones the test causes.
type replicatedTopology struct {
	coord    *cluster.Cluster
	backends []*cluster.Cluster
	regs     []*obs.Registry
}

func newReplicatedTopology(t *testing.T, repl int) *replicatedTopology {
	t.Helper()
	top := &replicatedTopology{coord: cluster.NewEmpty(cluster.Config{Replication: repl, ProbeInterval: -1})}
	t.Cleanup(top.coord.Close)
	for i := 0; i < 2; i++ {
		backend := newShard(t, 1)
		t.Cleanup(backend.Close)
		reg := obs.NewRegistry()
		srv := startServer(t, backend, ServerOptions{Metrics: reg})
		srv.RegisterMetrics(reg)
		rn, err := Connect(srv.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rn.Close() })
		if _, _, err := top.coord.AddRemote(rn); err != nil {
			t.Fatal(err)
		}
		top.backends = append(top.backends, backend)
		top.regs = append(top.regs, reg)
	}
	return top
}

// requestFrames sums bd_transport_requests_total over every opcode and
// both servers.
func (top *replicatedTopology) requestFrames() uint64 {
	var total uint64
	for _, reg := range top.regs {
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, "bd_transport_requests_total{") {
				total += v.Uint()
			}
		}
	}
	return total
}

// TestReplicatedBatchFrameCount pins the cost of one client batch in
// request frames — a count that repeats exactly: at R=2 a 16-op mixed
// batch is one primary RPC per server plus one mirror RPC per server, at
// R=1 just the two primary RPCs. The per-op replication this replaced
// paid two frames per write on top of the reads.
func TestReplicatedBatchFrameCount(t *testing.T) {
	batch := make([]cluster.Op, 16)
	for i := range batch {
		key := []byte(fmt.Sprintf("fc-%02d", i))
		if i%2 == 0 {
			batch[i] = cluster.Op{Kind: cluster.OpPut, Key: key, Value: []byte("v")}
		} else {
			batch[i] = cluster.Op{Kind: cluster.OpGet, Key: key}
		}
	}
	for _, tc := range []struct{ repl, frames int }{{2, 4}, {1, 2}} {
		top := newReplicatedTopology(t, tc.repl)
		// The fixed keys put writes and reads on both servers of the
		// deterministic ring; were one server to lead no write, a mirror
		// frame would not be owed and the count below would say so.
		before := top.requestFrames()
		if _, err := top.coord.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if got := top.requestFrames() - before; got != uint64(tc.frames) {
			t.Fatalf("R=%d: a 16-op batch cost %d request frames, want exactly %d", tc.repl, got, tc.frames)
		}
		for i := 0; i < len(batch); i += 2 {
			copies := 0
			for _, b := range top.backends {
				if _, ok := b.Get(batch[i].Key); ok {
					copies++
				}
			}
			if copies != tc.repl {
				t.Fatalf("R=%d: key %q has %d copies", tc.repl, batch[i].Key, copies)
			}
		}
	}
}

// TestReplicaIdentityUnderConcurrentApply drives concurrent callers
// writing overlapping Zipf keys through the replicated pipeline over real
// sockets, then compares the two stores entry for entry: holding the
// lead's write lock from the primary RPC to the last mirror ack is what
// keeps same-key writes in one order on every copy. Eight callers, not
// two: with the lock removed, two interleave too rarely on a two-core
// machine for a one-second run to catch it; eight do.
func TestReplicaIdentityUnderConcurrentApply(t *testing.T) {
	dur := time.Second
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	top := newReplicatedTopology(t, 2)
	const keys, batchSize = 512, 16
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			z := rand.NewZipf(rng, 1.1, 4, keys-1)
			ops := make([]cluster.Op, batchSize)
			res := make([]cluster.OpResult, batchSize)
			for seq, deadline := 0, time.Now().Add(dur); time.Now().Before(deadline); seq++ {
				for i := range ops {
					key := []byte(fmt.Sprintf("ri-%04d", z.Uint64()))
					switch rng.Intn(8) {
					case 0:
						ops[i] = cluster.Op{Kind: cluster.OpGet, Key: key}
					case 1:
						ops[i] = cluster.Op{Kind: cluster.OpDelete, Key: key}
					default:
						ops[i] = cluster.Op{Kind: cluster.OpPut, Key: key, Value: []byte(fmt.Sprintf("w%d-%d-%d", w, seq, i))}
					}
				}
				if err := top.coord.ApplyInto(ops, res); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	a, err := top.backends[0].Scan(nil, keys+1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := top.backends[1].Scan(nil, keys+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stores hold %d and %d keys", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("copies diverged at %q: %q vs %q (other side key %q)", a[i].Key, a[i].Value, b[i].Value, b[i].Key)
		}
	}
}
