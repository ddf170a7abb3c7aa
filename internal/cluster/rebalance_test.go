package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

func fillCluster(c *Cluster, n int) map[string]string {
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("reb-%05d", i)
		v := fmt.Sprintf("val-%d", i)
		c.Put([]byte(k), []byte(v))
		want[k] = v
	}
	return want
}

func checkAll(t *testing.T, c *Cluster, want map[string]string) {
	t.Helper()
	for k, v := range want {
		got, ok := c.Get([]byte(k))
		if !ok || !bytes.Equal(got, []byte(v)) {
			t.Fatalf("key %q = %q, %v after rebalance; want %q", k, got, ok, v)
		}
	}
}

// TestRebalanceAddNodeDeterministic grows a 4-shard cluster to 5 and
// checks the migration against the ring's own prediction: exactly the
// keys whose primary arc moved land on the new node, every key stays
// readable, and a second identical run reproduces the same report.
func TestRebalanceAddNodeDeterministic(t *testing.T) {
	const n = 3000
	run := func() (MoveReport, *Cluster) {
		c := testCluster(4, 1)
		want := fillCluster(c, n)

		// Predict the move set from ring geometry alone. New assigns ids
		// sequentially, so the next id is 4.
		old, next := NewRing(0), NewRing(0)
		for id := 0; id < 4; id++ {
			old.Add(id)
			next.Add(id)
		}
		next.Add(4)
		predicted := 0
		for k := range want {
			if old.Primary([]byte(k)) != next.Primary([]byte(k)) {
				predicted++
			}
		}

		id, report, err := c.AddNode()
		if err != nil {
			t.Fatal(err)
		}
		if id != 4 {
			t.Fatalf("new node id = %d, want 4", id)
		}
		if report.Scanned != n {
			t.Fatalf("scanned %d keys, want %d", report.Scanned, n)
		}
		if report.Copied != predicted || report.Dropped != predicted {
			t.Fatalf("copied/dropped = %d/%d, want %d (ring prediction)",
				report.Copied, report.Dropped, predicted)
		}
		if report.In[4] != predicted {
			t.Fatalf("new node received %d copies, want %d", report.In[4], predicted)
		}
		if predicted == 0 {
			t.Fatal("degenerate test: no keys predicted to move")
		}
		checkAll(t, c, want)
		return report, c
	}
	r1, c1 := run()
	r2, c2 := run()
	defer c1.Close()
	defer c2.Close()
	if r1.Copied != r2.Copied || r1.Scanned != r2.Scanned || r1.Dropped != r2.Dropped {
		t.Fatalf("rebalance not deterministic: %v vs %v", r1, r2)
	}
}

// TestRebalanceRemoveNode drains a shard and verifies its keys survive on
// the remaining members.
func TestRebalanceRemoveNode(t *testing.T) {
	c := testCluster(4, 1)
	defer c.Close()
	want := fillCluster(c, 2000)
	report, err := c.RemoveNode(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 3 {
		t.Fatalf("nodes = %d, want 3", c.Nodes())
	}
	if report.Copied == 0 {
		t.Fatal("removing a populated shard must move its keys")
	}
	checkAll(t, c, want)
	if _, err := c.RemoveNode(2); err == nil {
		t.Fatal("removing a removed node must fail")
	}
}

// TestRebalanceReplicatedRoundTrip checks migration under R=2 and that an
// add followed by a remove restores the original placement with every
// copy intact.
func TestRebalanceReplicatedRoundTrip(t *testing.T) {
	c := testCluster(3, 2)
	defer c.Close()
	want := fillCluster(c, 1500)

	// placed holds the layout to the oracle: every key on exactly its two
	// owners, and a scan that sees exactly one copy of each.
	placed := func(when string) {
		t.Helper()
		if got := assertPlacement(t, memberStores(t, c), c.View().Ring(), 2); got != len(want) {
			t.Fatalf("%d distinct keys stored after %s, want %d", got, when, len(want))
		}
		got, err := c.Scan(nil, len(want)+100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("scan sees %d keys after %s, want %d", len(got), when, len(want))
		}
	}

	id, _, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	checkAll(t, c, want)
	placed("add")
	if _, err := c.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	checkAll(t, c, want)
	placed("remove")
}

// TestRebalanceUnderTraffic pins the static driver's lock discipline:
// AddNode and RemoveNode run the shared migration passes while holding
// the topology write lock, so a pass that took the lock again (memberFor,
// isClosed — what the elastic driver calls) would deadlock right here.
// Client traffic meanwhile parks on the lock instead of failing: no op
// errors, and no key goes missing from under a reader.
func TestRebalanceUnderTraffic(t *testing.T) {
	c := testCluster(3, 2) // closed on the success path only: Close needs the lock a deadlock holds
	want := fillCluster(c, 1500)
	keys := make([][]byte, 0, len(want))
	for k := range want {
		keys = append(keys, []byte(k))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				// Each goroutine overwrites its own stripe of the preloaded
				// keys (same value: what is on trial is the lock, not write
				// ordering), so every key exists throughout.
				k := keys[i%len(keys)]
				switch i / 4 % 3 {
				case 0:
					if err := c.Put(k, []byte(want[string(k)])); err != nil {
						t.Errorf("Put(%q) during a membership change: %v", k, err)
						return
					}
				case 1:
					if _, ok := c.Get(k); !ok {
						t.Errorf("Get(%q) missed during a membership change", k)
						return
					}
				case 2:
					if _, err := c.Scan(k, 20); err != nil {
						t.Errorf("Scan(%q) during a membership change: %v", k, err)
						return
					}
				}
			}
		}(g)
	}
	changed := make(chan error, 1)
	go func() {
		id, _, err := c.AddNode()
		if err == nil {
			_, err = c.RemoveNode(id)
		}
		changed <- err
	}()
	select {
	case err := <-changed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AddNode+RemoveNode under traffic not done in 5s: a pass re-entered the topology lock")
	}
	close(stop)
	wg.Wait()
	checkAll(t, c, want)
	if got := assertPlacement(t, memberStores(t, c), c.View().Ring(), 2); got != len(want) {
		t.Fatalf("%d distinct keys stored after the round trip, want %d", got, len(want))
	}
	c.Close()
}

// TestRebalanceGrowsIntoReplication verifies that a cluster built with
// fewer members than the requested R reaches full replication once
// AddNode supplies enough nodes — both for pre-existing keys (via
// migration) and for new writes.
func TestRebalanceGrowsIntoReplication(t *testing.T) {
	c := New(Config{Shards: 1, Replication: 2, Engine: engine.Options{MemtableBytes: 32 << 10}})
	defer c.Close()
	want := fillCluster(c, 800)
	if _, _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	checkAll(t, c, want)
	c.Put([]byte("post-grow"), []byte("v"))
	// Pre-existing keys (via migration) and the new write both hold two
	// copies: with two members and R=2, every key is on both.
	if got := assertPlacement(t, memberStores(t, c), c.View().Ring(), 2); got != len(want)+1 {
		t.Fatalf("%d distinct keys stored after growth, want %d", got, len(want)+1)
	}
}

// TestRebalanceLastNodeGuard pins the cannot-empty-the-cluster invariant.
func TestRebalanceLastNodeGuard(t *testing.T) {
	c := New(Config{Shards: 1, Engine: engine.Options{}})
	defer c.Close()
	if _, err := c.RemoveNode(0); err == nil {
		t.Fatal("removing the last node must fail")
	}
}
