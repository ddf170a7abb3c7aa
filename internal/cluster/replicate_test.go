package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// scriptedRemote is a loopRemote whose batch calls — primary sub-batches,
// mirror batches and hint replays all arrive as Apply or TryApply — can
// be counted and replaced by a hook.
type scriptedRemote struct {
	loopRemote
	calls atomic.Int64
	// batch, when non-nil, answers Apply and TryApply instead of the
	// backing cluster; call is the 1-based count of batch calls so far.
	batch func(call int64, ops []Op) ([]OpResult, error)
}

func newScriptedRemote() *scriptedRemote {
	return &scriptedRemote{loopRemote: *newLoopRemote()}
}

func (r *scriptedRemote) Apply(ops []Op) ([]OpResult, error) {
	n := r.calls.Add(1)
	if r.batch != nil {
		return r.batch(n, ops)
	}
	return r.c.Apply(ops)
}

func (r *scriptedRemote) TryApply(ops []Op) ([]OpResult, error) { return r.Apply(ops) }

// replicatedPair builds a manual-probe R=2 coordinator over one local
// node (ring id 0) and one scripted remote, returning the remote's id.
func replicatedPair(t *testing.T, cfg Config) (*Cluster, *scriptedRemote, int) {
	t.Helper()
	cfg.Shards, cfg.Replication, cfg.ProbeInterval = 1, 2, -1
	cfg.Engine = engine.Options{MemtableBytes: 32 << 10}
	c := New(cfg)
	t.Cleanup(c.Close)
	rem := newScriptedRemote()
	id, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	return c, rem, id
}

func puts(keys [][]byte, value string) []Op {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpPut, Key: k, Value: []byte(value)}
	}
	return ops
}

// holds reports which of keys the member's own store has.
func holds(t *testing.T, c *Cluster, id int, keys [][]byte) []bool {
	t.Helper()
	m := c.memberFor(id)
	out := make([]bool, len(keys))
	for i, k := range keys {
		_, ok, err := m.directGet(k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ok
	}
	return out
}

func memberStats(c *Cluster, id int) NodeStats {
	for _, ns := range c.Stats().Nodes {
		if ns.ID == id {
			return ns
		}
	}
	return NodeStats{}
}

// TestReplicatedBatchOrder pins read-your-writes and write order inside
// one replicated sub-batch, whichever kind of member leads it: reads see
// the write before them, and both copies end on the last write.
func TestReplicatedBatchOrder(t *testing.T) {
	c, rem, remID := replicatedPair(t, Config{})
	for _, lead := range []int{0, remID} {
		k := remoteKeys(c, lead, 1)[0]
		res, err := c.Apply([]Op{
			{Kind: OpPut, Key: k, Value: []byte("v1")},
			{Kind: OpGet, Key: k},
			{Kind: OpPut, Key: k, Value: []byte("v2")},
			{Kind: OpGet, Key: k},
			{Kind: OpDelete, Key: k},
			{Kind: OpPut, Key: k, Value: []byte("v3")},
		})
		if err != nil {
			t.Fatalf("lead %d: %v", lead, err)
		}
		if string(res[1].Value) != "v1" || string(res[3].Value) != "v2" {
			t.Fatalf("lead %d: reads inside the batch saw %q then %q, want v1 then v2", lead, res[1].Value, res[3].Value)
		}
		for i, r := range res {
			if !r.Applied {
				t.Fatalf("lead %d: result %d not marked applied", lead, i)
			}
		}
		for _, id := range []int{0, remID} {
			if v, ok, _ := c.memberFor(id).directGet(k); !ok || string(v) != "v3" {
				t.Fatalf("lead %d: member %d holds %q, %v; want v3", lead, id, v, ok)
			}
		}
	}
	// Two sub-batches, each one primary call and one mirror batch; the
	// remote saw one of each.
	if got := rem.calls.Load(); got != 2 {
		t.Fatalf("remote saw %d batch calls, want 2 (one primary, one mirror)", got)
	}
}

// TestPartialShedMirrorsAppliedPrefix extends the shed-consistency rule
// to a primary that sheds part of a sub-batch: the replica must end up
// holding exactly the writes the primary applied.
func TestPartialShedMirrorsAppliedPrefix(t *testing.T) {
	c, rem, remID := replicatedPair(t, Config{})
	keys := remoteKeys(c, remID, 10)
	rem.batch = func(_ int64, ops []Op) ([]OpResult, error) {
		res, err := rem.c.Apply(ops[:5])
		if err != nil {
			return nil, err
		}
		return res, ErrOverload
	}
	res, err := c.TryApply(puts(keys, "v"))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("TryApply = %v, want ErrOverload", err)
	}
	onReplica, onPrimary := holds(t, c, 0, keys), holds(t, c, remID, keys)
	for i := range keys {
		want := i < 5
		if res[i].Applied != want || onPrimary[i] != want || onReplica[i] != want {
			t.Fatalf("op %d: applied=%v primary=%v replica=%v, want all %v",
				i, res[i].Applied, onPrimary[i], onReplica[i], want)
		}
	}
}

// TestPrimaryTransportErrorMirrorsNothing pins the unknown-outcome rule:
// when the primary call dies on the wire — here after the remote had
// applied, the worst case — no result came back, so nothing mirrors, the
// caller gets the error, and the detector hears of one failure.
func TestPrimaryTransportErrorMirrorsNothing(t *testing.T) {
	c, rem, remID := replicatedPair(t, Config{ProbeFailures: 3})
	keys := remoteKeys(c, remID, 6)
	rem.batch = func(_ int64, ops []Op) ([]OpResult, error) {
		if _, err := rem.c.Apply(ops); err != nil {
			return nil, err
		}
		return nil, errNetDown // the response is lost
	}
	if _, err := c.Apply(puts(keys, "v")); !errors.Is(err, errNetDown) {
		t.Fatalf("Apply = %v, want errNetDown", err)
	}
	for i, ok := range holds(t, c, 0, keys) {
		if ok {
			t.Fatalf("key %d reached the replica although the primary's outcome was unknown", i)
		}
	}
	if got := rem.calls.Load(); got != 1 {
		t.Fatalf("remote saw %d calls, want the one primary RPC", got)
	}
	if got := c.memberFor(remID).consecFails.Load(); got != 1 {
		t.Fatalf("detector counted %d failures for one failed sub-batch, want 1", got)
	}

	// The single-key path is a sub-batch of one on recycled scratch: a
	// failed Put right after a successful one must not mirror on the
	// earlier call's outcome.
	lost := rem.batch
	rem.batch = nil
	more := remoteKeys(c, remID, 8)[6:]
	if err := c.Put(more[0], []byte("v")); err != nil {
		t.Fatal(err)
	}
	rem.batch = lost
	if err := c.Put(more[1], []byte("v")); !errors.Is(err, errNetDown) {
		t.Fatalf("Put = %v, want errNetDown", err)
	}
	if got := holds(t, c, 0, more); !got[0] || got[1] {
		t.Fatalf("replica holds %v of the two single-key writes, want only the first", got)
	}
}

// TestShedMirrorLegIsHinted pins the fix for a silently lost mirror: a
// replica that refuses the leg with ErrOverload — not a transport error —
// after the primary applied must get the writes as hints, audited, and
// converge on the next probe.
func TestShedMirrorLegIsHinted(t *testing.T) {
	c, rem, remID := replicatedPair(t, Config{})
	keys := remoteKeys(c, 0, 20) // led by the local node, mirrored to the remote
	rem.batch = func(int64, []Op) ([]OpResult, error) { return nil, ErrOverload }
	for _, k := range keys {
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatalf("Put with a shedding replica: %v", err)
		}
	}
	ns := memberStats(c, remID)
	if ns.HintsPending != uint64(len(keys)) || ns.TransportErrs == 0 || ns.Down {
		t.Fatalf("after shed mirrors: pending=%d transportErrs=%d down=%v; want %d, >0, false",
			ns.HintsPending, ns.TransportErrs, ns.Down, len(keys))
	}
	rem.batch = nil
	c.Probe()
	for i, ok := range holds(t, c, remID, keys) {
		if !ok {
			t.Fatalf("key %d missing on the replica after hint replay", i)
		}
	}
	if ns := memberStats(c, remID); ns.HintsPending != 0 || ns.HintsReplayed != uint64(len(keys)) {
		t.Fatalf("after replay: pending=%d replayed=%d", ns.HintsPending, ns.HintsReplayed)
	}
}

// TestHintReplayChunked pins ordered chunked replay: a backlog of n hints
// costs at most ⌈n ÷ maxBatch⌉ round trips, a failed chunk re-buffers the
// unapplied tail ahead of younger hints, and the member ends up with the
// primary's final state.
func TestHintReplayChunked(t *testing.T) {
	const chunk = maxBatch
	// young is rewritten while still in the backlog: it sits in the
	// second chunk, the one the first recovery attempt loses.
	const young = chunk + 2
	c, rem, remID := replicatedPair(t, Config{ProbeFailures: 1})
	keys := remoteKeys(c, 0, 6*chunk+2)
	rem.batch = func(int64, []Op) ([]OpResult, error) { return nil, errNetDown }
	for _, k := range keys {
		if err := c.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if !c.MemberDown(remID) {
		t.Fatal("failed mirror did not mark the member down")
	}

	// First recovery attempt: the second chunk dies on the wire.
	base := rem.calls.Load()
	rem.batch = func(call int64, ops []Op) ([]OpResult, error) {
		if call == base+2 {
			return nil, errNetDown
		}
		return rem.c.Apply(ops)
	}
	c.Probe()
	if ns := memberStats(c, remID); !ns.Down || ns.HintsReplayed != chunk || ns.HintsPending != uint64(len(keys)-chunk) {
		t.Fatalf("after a failed chunk: down=%v replayed=%d pending=%d", ns.Down, ns.HintsReplayed, ns.HintsPending)
	}
	// A younger write to a key still in the backlog must replay after it.
	if err := c.Put(keys[young], []byte("new")); err != nil {
		t.Fatal(err)
	}

	rem.batch = nil
	base = rem.calls.Load()
	c.Probe()
	pending := len(keys) - chunk + 1
	if got, max := rem.calls.Load()-base, int64((pending+chunk-1)/chunk); got > max {
		t.Fatalf("replaying %d hints took %d round trips, want <= %d", pending, got, max)
	}
	if c.MemberDown(remID) {
		t.Fatal("member still down after a clean replay")
	}
	for i, k := range keys {
		want := "old"
		if i == young {
			want = "new"
		}
		for _, id := range []int{0, remID} {
			if v, ok, _ := c.memberFor(id).directGet(k); !ok || !bytes.Equal(v, []byte(want)) {
				t.Fatalf("key %d on member %d = %q, %v; want %q", i, id, v, ok, want)
			}
		}
	}
}

// TestMigrationPushChunks pins the batched store-only apply a migration
// push rides: copies queued for a destination land through chunked
// applyLocal calls with the receiver's dirty-guard still consulted per
// key, and an unreachable destination hands its copies back.
func TestMigrationPushChunks(t *testing.T) {
	c := New(Config{Shards: 2, Engine: engine.Options{MemtableBytes: 32 << 10}})
	defer c.Close()
	dst := c.memberFor(1).member.(*Node)
	g := newMigrationGuard(1)
	dst.guard.Store(g)
	// More copies than one chunk carries, with the guarded key in the
	// second chunk.
	const copies, live = 3*maxBatch + 2, maxBatch + 3
	key := func(i int) []byte { return []byte(fmt.Sprintf("mig-%03d", i)) }
	g.mark(key(live)) // a live write landed after the epoch began
	dst.eng.Put(key(live), []byte("live"))

	push := c.livePush(1, 0)
	for i := 0; i < copies; i++ {
		push.add(1, Op{Kind: OpPut, Key: key(i), Value: []byte("copy")})
	}
	if failed := push.flush(); len(failed) != 0 {
		t.Fatalf("flush left %d copies undelivered", len(failed))
	}
	for i := 0; i < copies; i++ {
		want := "copy"
		if i == live {
			want = "live"
		}
		if v, ok := dst.eng.Get(key(i)); !ok || string(v) != want {
			t.Fatalf("%s = %q, %v; want %q", key(i), v, ok, want)
		}
	}
	if keys, _, _ := c.MigrationStats(); keys != copies {
		t.Fatalf("migration keys counted %d, want %d", keys, copies)
	}
	if skips := dst.guardSkips.Load(); skips != 1 {
		t.Fatalf("dirty-guard skipped %d copies, want 1", skips)
	}
	// A destination that is not dialed gives every copy back.
	push.add(7, Op{Kind: OpPut, Key: []byte("mig-x"), Value: []byte("copy")})
	if failed := push.flush(); len(failed) != 1 {
		t.Fatalf("undialed destination: %d copies reported failed, want 1", len(failed))
	}
}

// TestMixedLeadersKeepCopiesIdentical runs concurrent overlapping batches
// through a ring where a local node leads half the keys and a remote
// proxy the other half, each mirroring to the other, and compares the two
// stores entry for entry — the byte-identity both leaders' write locks
// exist for.
func TestMixedLeadersKeepCopiesIdentical(t *testing.T) {
	c, rem, _ := replicatedPair(t, Config{})
	// Every third batch call into the remote — primary sub-batches and
	// mirror legs alike — stalls briefly, so a leader that let go of its
	// lock between the primary apply and the mirror ack would be overtaken.
	rem.batch = func(call int64, ops []Op) ([]OpResult, error) {
		if call%3 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return rem.c.Apply(ops)
	}
	const keys, callers, rounds = 64, 8, 150
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ops := make([]Op, 16)
			res := make([]OpResult, len(ops))
			for seq := 0; seq < rounds; seq++ {
				for i := range ops {
					key := []byte(fmt.Sprintf("mx-%02d", rng.Intn(keys)))
					switch rng.Intn(6) {
					case 0:
						ops[i] = Op{Kind: OpGet, Key: key}
					case 1:
						ops[i] = Op{Kind: OpDelete, Key: key}
					default:
						ops[i] = Op{Kind: OpPut, Key: key, Value: []byte(fmt.Sprintf("w%d-%d-%d", w, seq, i))}
					}
				}
				if err := c.ApplyInto(ops, res); err != nil {
					t.Errorf("caller %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	local, err := c.memberFor(0).snapshotScan(nil, nil, keys+1)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := rem.c.Scan(nil, keys+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 || len(local) != len(remote) {
		t.Fatalf("stores hold %d and %d keys", len(local), len(remote))
	}
	for i := range local {
		if !bytes.Equal(local[i].Key, remote[i].Key) || !bytes.Equal(local[i].Value, remote[i].Value) {
			t.Fatalf("copies diverged at %q: local %q, remote %q", local[i].Key, local[i].Value, remote[i].Value)
		}
	}
}
