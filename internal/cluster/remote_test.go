package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
)

// loopRemote adapts a second in-process Cluster to the Remote interface —
// the transport-free stand-in for a shard server in another process.
type loopRemote struct {
	c *Cluster
	// overload forces TryApply to shed, for ErrOverload propagation tests.
	overload bool
}

func (r *loopRemote) Ping() error { return nil }

func (r *loopRemote) Get(key []byte) ([]byte, bool, error) {
	v, ok := r.c.Get(key)
	return v, ok, nil
}
func (r *loopRemote) Apply(ops []Op) ([]OpResult, error) { return r.c.Apply(ops) }
func (r *loopRemote) TryApply(ops []Op) ([]OpResult, error) {
	if r.overload {
		return nil, ErrOverload
	}
	return r.c.TryApply(ops)
}
func (r *loopRemote) AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	return r.c.AppendScan(dst, start, limit)
}
func (r *loopRemote) Close() error { r.c.Close(); return nil }

func newLoopRemote() *loopRemote {
	return &loopRemote{c: New(Config{Shards: 1, Engine: engine.Options{MemtableBytes: 32 << 10}})}
}

// TestAddRemoteMixedMembership joins two remote shards next to a local
// one and runs the conformance behaviors through the mixed ring:
// read-your-writes point ops, positional batches, and scatter-gather
// scans that merge local and remote partials.
func TestAddRemoteMixedMembership(t *testing.T) {
	c := testCluster(1, 1)
	defer c.Close()
	r1, r2 := newLoopRemote(), newLoopRemote()
	if _, _, err := c.AddRemote(r1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddRemote(r2); err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 3 {
		t.Fatalf("members = %d, want 3", c.Nodes())
	}

	ref, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("mix-%05d", i))
		val := []byte(fmt.Sprintf("v%d", i))
		c.Put(key, val)
		ref.Put(key, val)
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("read-your-writes violated for %q: %q, %v", key, got, ok)
		}
	}
	// Every member received a share of the keyspace; each shard's engine
	// counters are read where the shard lives.
	for i, shard := range []*Cluster{c, r1.c, r2.c} {
		if shard.Stats().Nodes[0].Store.Puts == 0 {
			t.Fatalf("shard %d received no writes", i)
		}
	}
	// Batched reads through the queues resolve across the mixed ring.
	reads := make([]Op, 0, 256)
	for i := 0; i < 256; i++ {
		reads = append(reads, Op{Kind: OpGet, Key: []byte(fmt.Sprintf("mix-%05d", i))})
	}
	res, err := c.Apply(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found || !bytes.Equal(r.Value, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("batched read %d = %+v", i, r)
		}
	}
	// Scatter-gather scans merge remote and local partials in key order.
	for _, start := range []string{"", "mix-00500", "zzz"} {
		got, err := c.Scan([]byte(start), 64)
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
}

// TestAddRemoteReplication verifies R=2 across a local/remote pair:
// every key lands on exactly two members and survives the loss of
// either copy's routing.
func TestAddRemoteReplication(t *testing.T) {
	c := New(Config{Shards: 1, Replication: 2, Engine: engine.Options{MemtableBytes: 32 << 10}})
	defer c.Close()
	rem := newLoopRemote()
	if _, _, err := c.AddRemote(rem); err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("rep-%04d", i))
		c.Put(key, key)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("rep-%04d", i))
		copies := 0
		for _, m := range c.nodes {
			if _, ok, _ := m.directGet(key); ok {
				copies++
			}
		}
		if copies != 2 {
			t.Fatalf("key %q has %d copies, want 2", key, copies)
		}
	}
}

// TestAddRemoteOverloadPropagation pins that a remote's shed TryApply
// surfaces as ErrOverload at the coordinator even though remote
// sub-batches complete asynchronously.
func TestAddRemoteOverloadPropagation(t *testing.T) {
	c := NewEmpty(Config{})
	defer c.Close()
	rem := newLoopRemote()
	rem.overload = true
	if _, _, err := c.AddRemote(rem); err != nil {
		t.Fatal(err)
	}
	ops := []Op{{Kind: OpPut, Key: []byte("k"), Value: []byte("v")}}
	if _, err := c.TryApply(ops); err != ErrOverload {
		t.Fatalf("TryApply = %v, want ErrOverload", err)
	}
	rem.overload = false
	if _, err := c.TryApply(ops); err != nil {
		t.Fatalf("TryApply after overload cleared: %v", err)
	}
}

// TestAddRemoteRebalance checks that membership changes migrate data
// onto and off a remote member like any local shard.
func TestAddRemoteRebalance(t *testing.T) {
	c := testCluster(2, 1)
	defer c.Close()
	want := fillCluster(c, 1000)
	rem := newLoopRemote()
	id, report, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	if report.In[id] == 0 {
		t.Fatal("no keys migrated onto the remote member")
	}
	checkAll(t, c, want)
	if _, err := c.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	checkAll(t, c, want)
}

// TestRemotePrimaryShedKeepsReplicasConsistent pins the R-copy
// invariant under admission control: when a remote primary sheds a
// replicated write, the replica must not receive it either (applied
// nowhere), and once accepted it must reach both copies.
func TestRemotePrimaryShedKeepsReplicasConsistent(t *testing.T) {
	c := New(Config{Shards: 1, Replication: 2, Engine: engine.Options{MemtableBytes: 32 << 10}})
	defer c.Close()
	rem := newLoopRemote()
	remID, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	// Find a key whose primary is the remote member.
	var key []byte
	c.mu.RLock()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("shedrep-%04d", i))
		if owners := c.ring.Owners(k, 2); owners[0] == remID {
			key = k
			break
		}
	}
	c.mu.RUnlock()
	if key == nil {
		t.Fatal("no key with a remote primary found")
	}

	rem.overload = true
	ops := []Op{{Kind: OpPut, Key: key, Value: []byte("v")}}
	if _, err := c.TryApply(ops); err != ErrOverload {
		t.Fatalf("TryApply = %v, want ErrOverload", err)
	}
	if _, ok := rem.c.Get(key); ok {
		t.Fatal("shed write reached the remote primary")
	}
	c.mu.RLock()
	_, onLocal, _ := c.nodes[0].directGet(key)
	c.mu.RUnlock()
	if onLocal {
		t.Fatal("shed write was mirrored to the replica — copies diverged")
	}

	rem.overload = false
	if _, err := c.TryApply(ops); err != nil {
		t.Fatalf("TryApply after overload: %v", err)
	}
	if _, ok := rem.c.Get(key); !ok {
		t.Fatal("accepted write missing on the remote primary")
	}
	c.mu.RLock()
	_, onLocal, _ = c.nodes[0].directGet(key)
	c.mu.RUnlock()
	if !onLocal {
		t.Fatal("accepted write not mirrored to the replica")
	}
}

var errNetDown = errors.New("transport down")

// TestMigrationSurfacesRemoteFailure pins that a membership change
// whose data movement hits a dead transport reports the failure instead
// of silently returning a clean MoveReport with keys left behind — and
// that what it leaves behind is the unsettled view the elastic protocol
// already reads through: nothing was dropped, so every key stays
// readable from its last settled owners until the change is resolved.
// Writes are refused for exactly that long, because the static driver
// arms no guard for them: accepted on the half-joined ring, they would be
// overwritten or dropped by whichever change resolves it.
func TestMigrationSurfacesRemoteFailure(t *testing.T) {
	// failedJoin preloads two local shards and fails an AddRemote half way:
	// the remote takes the first chunk of copies and dies on the second
	// (chaosRemote fails the call the mover makes: Apply).
	failedJoin := func(t *testing.T) (*Cluster, *chaosRemote, int, map[string]string) {
		c := New(Config{Shards: 2, ProbeInterval: -1, Engine: engine.Options{MemtableBytes: 32 << 10}})
		t.Cleanup(c.Close)
		want := fillCluster(c, 500)
		rem := newChaosRemote()
		rem.dieAfter.Store(2)
		id, report, err := c.AddRemote(rem)
		if !errors.Is(err, errNetDown) {
			t.Fatalf("AddRemote with dead transport = %v, want errNetDown", err)
		}
		if landed, _ := rem.c.Scan(nil, len(want)); len(landed) == 0 || len(landed) != report.Copied {
			t.Fatalf("%d copies on the member, report says %d; want the join stopped half way", len(landed), report.Copied)
		}
		// The failure is audited on the member.
		var transportErrs uint64
		for _, ns := range c.Stats().Nodes {
			transportErrs += ns.TransportErrs
		}
		if transportErrs == 0 {
			t.Fatal("transport failures not surfaced in NodeStats.TransportErrs")
		}
		// The copies never landed, and the view says so.
		if c.Settled() {
			t.Fatal("view reads settled after a failed copy pass")
		}
		checkAll(t, c, want)
		// The dead member sits on the ring with nothing behind it, so the scan
		// may flag lost coverage — but it must still merge every key.
		got, err := c.Scan(nil, len(want)+100)
		if err != nil && !errors.Is(err, ErrScanIncomplete) {
			t.Fatalf("scan over the half-joined ring: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("scan merged %d keys after the failed join, want %d", len(got), len(want))
		}
		for _, e := range got {
			if want[string(e.Key)] != string(e.Value) {
				t.Fatalf("scan returned %q = %q, want %q", e.Key, e.Value, want[string(e.Key)])
			}
		}
		// Read-only until resolved, through every write entry point; a batch
		// of reads still runs (k is a key the dead member did not take over:
		// a batch, unlike Get, fails a key whose every current owner is down).
		var k []byte
		for key := range want {
			if c.View().Ring().Primary([]byte(key)) != id {
				k = []byte(key)
				break
			}
		}
		if err := c.Put(k, []byte("v2")); !errors.Is(err, ErrUnsettled) {
			t.Fatalf("Put on the half-joined ring = %v, want ErrUnsettled", err)
		}
		if err := c.Delete(k); !errors.Is(err, ErrUnsettled) {
			t.Fatalf("Delete on the half-joined ring = %v, want ErrUnsettled", err)
		}
		if _, err := c.Apply([]Op{{Kind: OpGet, Key: k}, {Kind: OpPut, Key: k, Value: []byte("v2")}}); !errors.Is(err, ErrUnsettled) {
			t.Fatalf("Apply with a write on the half-joined ring = %v, want ErrUnsettled", err)
		}
		if res, err := c.Apply([]Op{{Kind: OpGet, Key: k}}); err != nil || string(res[0].Value) != want[string(k)] {
			t.Fatalf("read-only Apply on the half-joined ring = %+v, %v", res, err)
		}
		return c, rem, id, want
	}
	// resolved checks the end state either resolution must reach: settled,
	// nothing lost, writes accepted again and landing on exactly the owners
	// the final ring names — a second generation of every key included.
	resolved := func(t *testing.T, c *Cluster, want map[string]string) {
		t.Helper()
		if !c.Settled() {
			t.Fatal("view still unsettled after the change was resolved")
		}
		checkAll(t, c, want)
		for k := range want {
			want[k] = "v2-" + k
			if err := c.Put([]byte(k), []byte(want[k])); err != nil {
				t.Fatalf("Put after the change was resolved: %v", err)
			}
		}
		checkAll(t, c, want)
		if got := assertPlacement(t, memberStores(t, c), c.View().Ring(), 1); got != len(want) {
			t.Fatalf("%d distinct keys stored after the change was resolved, want %d", got, len(want))
		}
	}
	t.Run("BackOut", func(t *testing.T) {
		// The dead member was never a source, so nothing needs to come off it.
		c, _, id, want := failedJoin(t)
		if _, err := c.RemoveNode(id); err != nil {
			t.Fatalf("RemoveNode of the half-joined member: %v", err)
		}
		resolved(t, c, want)
	})
	t.Run("Complete", func(t *testing.T) {
		// The transport recovers and the next change plans from the last
		// settled layout again, which finishes the join along the way and
		// clears what the first attempt left on the member.
		c, rem, _, want := failedJoin(t)
		rem.down.Store(false)
		c.Probe() // the reads above marked the member down; the detector sees it back
		if _, _, err := c.AddNode(); err != nil {
			t.Fatalf("AddNode after the transport recovered: %v", err)
		}
		resolved(t, c, want)
	})
}

// TestNewEmpty pins the no-members behavior.
func TestNewEmpty(t *testing.T) {
	c := NewEmpty(Config{})
	defer c.Close()
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("read on empty coordinator found a key")
	}
	if _, err := c.Apply([]Op{{Kind: OpGet, Key: []byte("k")}}); err != ErrNoNodes {
		t.Fatalf("Apply on empty coordinator = %v, want ErrNoNodes", err)
	}
}
