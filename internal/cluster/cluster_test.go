package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
)

func testCluster(shards, replication int) *Cluster {
	return New(Config{
		Shards:      shards,
		Replication: replication,
		Engine:      engine.Options{MemtableBytes: 32 << 10},
	})
}

func TestClusterPointOps(t *testing.T) {
	c := testCluster(4, 1)
	defer c.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		c.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	for i := 0; i < n; i++ {
		v, ok := c.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get key-%05d = %q, %v", i, v, ok)
		}
	}
	if _, ok := c.Get([]byte("absent")); ok {
		t.Fatal("absent key found")
	}
	c.Delete([]byte("key-00000"))
	if _, ok := c.Get([]byte("key-00000")); ok {
		t.Fatal("deleted key still readable")
	}
	// The corpus is spread across every shard.
	for _, ns := range c.Stats().Nodes {
		if ns.Store.Puts == 0 {
			t.Fatalf("node %d received no writes", ns.ID)
		}
	}
}

func TestClusterReadYourWritesUnderReplication(t *testing.T) {
	c := testCluster(5, 3)
	defer c.Close()
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("ryw-%04d", i))
		val := []byte(fmt.Sprintf("v%d", i))
		c.Put(key, val)
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("read-your-writes violated for %q: %q, %v", key, got, ok)
		}
	}
	// Every key is stored on exactly R nodes.
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("ryw-%04d", i))
		copies := 0
		for _, n := range c.nodes {
			if _, ok, _ := n.directGet(key); ok {
				copies++
			}
		}
		if copies != 3 {
			t.Fatalf("key %q has %d copies, want 3", key, copies)
		}
	}
}

func TestClusterApplyMatchesDirect(t *testing.T) {
	c := testCluster(3, 2)
	defer c.Close()
	var ops []Op
	for i := 0; i < 300; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: []byte(fmt.Sprintf("b-%04d", i)), Value: []byte{byte(i)}})
	}
	if _, err := c.Apply(ops); err != nil {
		t.Fatal(err)
	}
	reads := make([]Op, 300)
	for i := range reads {
		reads[i] = Op{Kind: OpGet, Key: []byte(fmt.Sprintf("b-%04d", i))}
	}
	res, err := c.Apply(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	// Results stay positionally aligned for a shuffled read/delete mix.
	mixed := []Op{
		{Kind: OpGet, Key: []byte("b-0007")},
		{Kind: OpDelete, Key: []byte("b-0008")},
		{Kind: OpGet, Key: []byte("b-0008")},
		{Kind: OpGet, Key: []byte("nope")},
	}
	res, err = c.Apply(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Found || res[2].Found || res[3].Found {
		t.Fatalf("mixed results = %+v", res)
	}
}

func TestClusterScanScatterGather(t *testing.T) {
	c := testCluster(4, 2)
	defer c.Close()
	ref, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("s-%05d", i))
		val := []byte(fmt.Sprintf("v%d", i))
		c.Put(key, val)
		ref.Put(key, val)
	}
	for _, start := range []string{"", "s-00000", "s-00777", "s-01499", "zzz"} {
		got, err := c.Scan([]byte(start), 100)
		if err != nil {
			t.Fatalf("scan(%q): %v", start, err)
		}
		want := ref.Scan([]byte(start), 100)
		if len(got) != len(want) {
			t.Fatalf("scan(%q) len = %d, want %d", start, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("scan(%q)[%d] = %q=%q, want %q=%q", start, i,
					got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	c := New(Config{
		Shards:      4,
		Replication: 2,
		Engine:      engine.Options{MemtableBytes: 16 << 10},
	})
	defer c.Close()
	const clients, perClient = 8, 400
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i += 4 {
				batch := make([]Op, 0, 4)
				for j := 0; j < 4; j++ {
					key := []byte(fmt.Sprintf("c%d-%04d", cl, i+j))
					batch = append(batch,
						Op{Kind: OpPut, Key: key, Value: key})
				}
				if _, err := c.Apply(batch); err != nil {
					errs <- err
					return
				}
			}
			// Each client reads back its own writes.
			for i := 0; i < perClient; i++ {
				key := []byte(fmt.Sprintf("c%d-%04d", cl, i))
				if v, ok := c.Get(key); !ok || !bytes.Equal(v, key) {
					errs <- fmt.Errorf("client %d lost key %q", cl, key)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Ops < clients*perClient {
		t.Fatalf("ops = %d, want >= %d", st.Ops, clients*perClient)
	}
}

func TestClusterTryApplyOverload(t *testing.T) {
	// One node, tiny queue, workers not yet started: build the node
	// directly so intake can be saturated deterministically.
	c := testCluster(1, 1)
	defer c.Close()
	eng, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	stopped := newNode(99, eng, 1, 1, 4)
	c.nodes[99] = newMemberState(stopped, 3, 64)
	c.commitViewLocked(newView(2, 1, 8, []MemberInfo{{ID: 99, Incarnation: 1, Settled: 2}}))
	c.mu.Unlock()

	// Fill the depth-1 queue directly, then watch TryApply shed.
	var fill sync.WaitGroup
	fill.Add(1)
	one := []Op{{Kind: OpPut, Key: []byte("k"), Value: []byte("v")}}
	if err := stopped.trySubmit(&request{
		ops: one, replicas: [][]mirror{nil}, results: make([]OpResult, 1), idx: []int{0}, done: &fill,
	}); err != nil {
		t.Fatalf("fill submit: %v", err)
	}
	if _, err := c.TryApply(one); err != ErrOverload {
		t.Fatalf("TryApply on full queue = %v, want ErrOverload", err)
	}
	stopped.start()
	defer stopped.close()
	fill.Wait()
	if _, err := c.Apply(one); err != nil {
		t.Fatalf("Apply after start: %v", err)
	}
	if st := c.Stats(); st.Rejected == 0 {
		t.Fatal("rejected count not surfaced in stats")
	}
}

func TestClusterClose(t *testing.T) {
	c := testCluster(2, 1)
	c.Put([]byte("k"), []byte("v"))
	c.Close()
	c.Close() // idempotent
	if _, err := c.Apply([]Op{{Kind: OpGet, Key: []byte("k")}}); err != ErrClosed {
		t.Fatalf("Apply after close = %v, want ErrClosed", err)
	}
}
