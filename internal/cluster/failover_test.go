package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// chaosRemote is a loopRemote with a kill switch: while down, every RPC
// fails with errNetDown — the transport-free model of a crashed or
// partitioned bdserve process. Reviving it restores the backing store
// untouched (the durable-storage restart model).
type chaosRemote struct {
	c    *Cluster
	down atomic.Bool
	// dieAfter, when positive, counts RPCs down: the one that reaches zero
	// finds the remote down, and so does every later one — a transport that
	// dies part way through a sequence of calls.
	dieAfter atomic.Int64
	// sealed, when set, fails that test on any further RPC: the proof a
	// code path under test stays off the wire.
	sealed atomic.Pointer[testing.T]
}

func newChaosRemote() *chaosRemote {
	return &chaosRemote{c: New(Config{Shards: 1, Engine: engine.Options{MemtableBytes: 32 << 10}})}
}

func (r *chaosRemote) rpc() error {
	if t := r.sealed.Load(); t != nil {
		t.Error("RPC issued to a sealed remote")
	}
	if r.dieAfter.Load() > 0 && r.dieAfter.Add(-1) == 0 {
		r.down.Store(true)
	}
	if r.down.Load() {
		return errNetDown
	}
	return nil
}

func (r *chaosRemote) Ping() error { return r.rpc() }

func (r *chaosRemote) Get(key []byte) ([]byte, bool, error) {
	if err := r.rpc(); err != nil {
		return nil, false, err
	}
	v, ok := r.c.Get(key)
	return v, ok, nil
}

func (r *chaosRemote) AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	if err := r.rpc(); err != nil {
		return nil, err // remoteMember must keep the caller's dst regardless
	}
	return r.c.AppendScan(dst, start, limit)
}

func (r *chaosRemote) Apply(ops []Op) ([]OpResult, error) {
	if err := r.rpc(); err != nil {
		return nil, err
	}
	return r.c.Apply(ops)
}

func (r *chaosRemote) TryApply(ops []Op) ([]OpResult, error) {
	if err := r.rpc(); err != nil {
		return nil, err
	}
	return r.c.TryApply(ops)
}

func (r *chaosRemote) Close() error { r.c.Close(); return nil }

// failoverCluster builds a manual-probe coordinator (ProbeInterval < 0)
// with one local node and one chaosRemote, returning the remote's ring
// id. threshold is ProbeFailures.
func failoverCluster(t *testing.T, replication, threshold int) (*Cluster, *chaosRemote, int) {
	t.Helper()
	c := New(Config{
		Shards:        1,
		Replication:   replication,
		ProbeInterval: -1,
		ProbeFailures: threshold,
		Engine:        engine.Options{MemtableBytes: 32 << 10},
	})
	rem := newChaosRemote()
	id, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	return c, rem, id
}

// markDown drives the manual prober until the detector flips the member.
func markDown(t *testing.T, c *Cluster, id, threshold int) {
	t.Helper()
	for i := 0; i < threshold; i++ {
		c.Probe()
	}
	if !c.MemberDown(id) {
		t.Fatalf("member %d not marked down after %d failed probes", id, threshold)
	}
}

// remoteKeys returns n keys whose primary is the given member.
func remoteKeys(c *Cluster, id, n int) [][]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var keys [][]byte
	for i := 0; len(keys) < n && i < 100000; i++ {
		k := []byte(fmt.Sprintf("fo-%05d", i))
		if c.ring.Owners(k, c.cfg.Replication)[0] == id {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestScanSurfacesLostCoverage pins the silent-truncation bugfix: with
// R=1 a dead member's keyrange has no surviving copy, so Scan must
// return ErrScanIncomplete — both before the detector flips (failed
// RPC) and after (member marked down) — instead of a silently shorter
// result.
func TestScanSurfacesLostCoverage(t *testing.T) {
	c, rem, id := failoverCluster(t, 1, 2)
	defer c.Close()
	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("fo-%05d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Scan(nil, 1000)
	if err != nil || len(full) != 600 {
		t.Fatalf("healthy scan = %d entries, %v", len(full), err)
	}

	rem.down.Store(true)
	// Phase 1: the member is dying but not yet marked down — the scan
	// RPC fails and the loss must surface immediately.
	got, err := c.Scan(nil, 1000)
	if !errors.Is(err, ErrScanIncomplete) {
		t.Fatalf("scan with failing member = %v, want ErrScanIncomplete", err)
	}
	if len(got) >= 600 {
		t.Fatalf("partial scan returned %d entries, expected fewer than 600", len(got))
	}
	// Phase 2: after detection the member is skipped, and the verdict is
	// the same explicit error, not a quietly shrunken range.
	markDown(t, c, id, 2)
	if _, err := c.Scan(nil, 1000); !errors.Is(err, ErrScanIncomplete) {
		t.Fatalf("scan with down member = %v, want ErrScanIncomplete", err)
	}

	// Recovery restores clean full scans.
	rem.down.Store(false)
	c.Probe()
	if c.MemberDown(id) {
		t.Fatal("member still down after successful probe")
	}
	got, err = c.Scan(nil, 1000)
	if err != nil || len(got) != 600 {
		t.Fatalf("post-recovery scan = %d entries, %v", len(got), err)
	}
}

// TestScanFailureKeepsCallerPrefix pins what a failed scan hands back
// when its only member is remote: members append into the caller's dst,
// so a failed leg must return that dst — not nil, which would drop the
// entries the caller passed in. The remote here answers a failed call
// with nil, as a Remote is free to.
func TestScanFailureKeepsCallerPrefix(t *testing.T) {
	c := NewEmpty(Config{ProbeInterval: -1, ProbeFailures: 3})
	defer c.Close()
	rem := newChaosRemote()
	if _, _, err := c.AddRemote(rem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("fo-%05d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	prefix := engine.Entry{Key: []byte("caller"), Value: []byte("prefix")}
	rem.down.Store(true)
	got, err := c.AppendScan([]engine.Entry{prefix}, nil, 10)
	if !errors.Is(err, ErrScanIncomplete) {
		t.Fatalf("scan of a failing only member = %v, want ErrScanIncomplete", err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Key, prefix.Key) {
		t.Fatalf("failed scan returned %d entries %v, want the caller's one-entry prefix", len(got), got)
	}
}

// TestScanCompleteUnderReplicaCoverage pins the degraded-read guarantee:
// with R=2, one dead member leaves every keyrange covered by a survivor,
// so Scan stays complete and error-free.
func TestScanCompleteUnderReplicaCoverage(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 2)
	defer c.Close()
	ref, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("fo-%05d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
		ref.Put(k, k)
	}
	rem.down.Store(true)
	markDown(t, c, id, 2)
	for _, start := range []string{"", "fo-00250"} {
		got, err := c.Scan([]byte(start), 100)
		if err != nil {
			t.Fatalf("covered scan(%q) = %v, want nil error", start, err)
		}
		want := ref.Scan([]byte(start), 100)
		if len(got) != len(want) {
			t.Fatalf("covered scan(%q) len = %d, want %d", start, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) {
				t.Fatalf("covered scan(%q)[%d] = %q, want %q", start, i, got[i].Key, want[i].Key)
			}
		}
	}
}

// TestReadFailoverToReplica pins degraded point reads: a key whose
// primary is dead keeps serving from the surviving replica, both before
// and after detection.
func TestReadFailoverToReplica(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 2)
	defer c.Close()
	keys := remoteKeys(c, id, 50)
	if len(keys) < 50 {
		t.Fatal("no keys with a remote primary found")
	}
	for _, k := range keys {
		if err := c.Put(k, append([]byte("v-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(phase string) {
		t.Helper()
		for _, k := range keys {
			v, ok := c.Get(k)
			if !ok || !bytes.Equal(v, append([]byte("v-"), k...)) {
				t.Fatalf("%s: Get(%q) = %q, %v", phase, k, v, ok)
			}
		}
	}
	rem.down.Store(true)
	check("pre-detection")
	markDown(t, c, id, 2)
	check("post-detection")
}

// TestWriteFailoverAndHintedHandoff is the heart of the tentpole: writes
// to a down primary promote to the surviving replica and buffer hints;
// recovery replays them so the member converges, after which it is live
// again.
func TestWriteFailoverAndHintedHandoff(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 2)
	defer c.Close()
	keys := remoteKeys(c, id, 40)
	if len(keys) < 40 {
		t.Fatal("no keys with a remote primary found")
	}
	rem.down.Store(true)
	markDown(t, c, id, 2)

	// Writes through the dead primary must succeed (promoted to the
	// survivor) and stay readable; the same key overwritten twice must
	// replay to its final value.
	for _, k := range keys {
		if err := c.Put(k, []byte("stale")); err != nil {
			t.Fatalf("Put(%q) with down primary: %v", k, err)
		}
		if err := c.Put(k, append([]byte("final-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, ok := c.Get(k); !ok || !bytes.Equal(v, append([]byte("final-"), k...)) {
			t.Fatalf("degraded read of %q = %q, %v", k, v, ok)
		}
	}
	st := c.Stats()
	var pending uint64
	for _, ns := range st.Nodes {
		pending += ns.HintsPending
	}
	if pending == 0 {
		t.Fatal("no hints buffered for the down member")
	}
	if st.Down != 1 {
		t.Fatalf("Stats.Down = %d, want 1", st.Down)
	}

	// Recovery: probe sees the member, replays the hints, marks it up.
	rem.down.Store(false)
	c.Probe()
	if c.MemberDown(id) {
		t.Fatal("member still down after recovery probe")
	}
	for _, k := range keys {
		v, ok := rem.c.Get(k)
		if !ok || !bytes.Equal(v, append([]byte("final-"), k...)) {
			t.Fatalf("hinted handoff did not converge %q on the recovered member: %q, %v", k, v, ok)
		}
	}
	st = c.Stats()
	var replayed, stillPending uint64
	for _, ns := range st.Nodes {
		replayed += ns.HintsReplayed
		stillPending += ns.HintsPending
	}
	if replayed == 0 || stillPending != 0 {
		t.Fatalf("hint replay accounting: replayed=%d pending=%d", replayed, stillPending)
	}
}

// TestStatsIssuesNoRPC pins that Stats reports a remote member from
// coordinator-side state alone — detector verdict and hint buffer here,
// TransportErrs in TestMigrationSurfacesRemoteFailure — and never asks
// the member: the remote is sealed after the join, up and then down,
// and any call fails the test. The member's own counters stay on its
// side of the wire.
func TestStatsIssuesNoRPC(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 1)
	defer c.Close()
	defer rem.sealed.Store(nil) // Close reaches the remote
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("nr-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rem.sealed.Store(t)
	st := c.Stats()
	rem.sealed.Store(nil)
	if len(st.Nodes) != 2 || st.Down != 0 {
		t.Fatalf("stats = %+v, want two members, none down", st)
	}
	for _, ns := range st.Nodes {
		if remote := ns.ID == id; remote != (ns.Store.Puts == 0) {
			t.Fatalf("member %d (remote %v) reports %d engine puts: only the local node's counters are this process's to report", ns.ID, remote, ns.Store.Puts)
		}
	}
	if puts := rem.c.Stats().Nodes[0].Store.Puts; puts != 20 {
		t.Fatalf("remote shard holds %d mirrored writes, want 20", puts)
	}

	rem.down.Store(true)
	markDown(t, c, id, 1)
	if err := c.Put([]byte("nr-down"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rem.sealed.Store(t)
	ns := memberStats(c, id)
	rem.sealed.Store(nil)
	if !ns.Down || ns.HintsPending != 1 {
		t.Fatalf("down member stats = %+v, want Down with one pending hint", ns)
	}
}

// TestHintBufferBound pins the handoff buffer's drop-oldest bound and
// its audit counter.
func TestHintBufferBound(t *testing.T) {
	c := New(Config{
		Shards:        1,
		Replication:   2,
		ProbeInterval: -1,
		ProbeFailures: 1,
		HintLimit:     8,
		Engine:        engine.Options{MemtableBytes: 32 << 10},
	})
	defer c.Close()
	rem := newChaosRemote()
	id, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	rem.down.Store(true)
	markDown(t, c, id, 1)
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("hb-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var pending, dropped uint64
	for _, ns := range c.Stats().Nodes {
		pending += ns.HintsPending
		dropped += ns.HintsDropped
	}
	if pending > 8 {
		t.Fatalf("hint buffer grew to %d, bound is 8", pending)
	}
	if dropped == 0 {
		t.Fatal("overflowed hints not counted in HintsDropped")
	}
}

// TestApplyMidFailureSurfacesError pins the mid-batch failure paths:
// a member dying mid-Apply surfaces the transport error (errors.Is
// reaches the cause), passive detection flips the member down, and from
// then on an R=1 keyrange fails explicitly with ErrAllOwnersDown rather
// than losing writes.
func TestApplyMidFailureSurfacesError(t *testing.T) {
	c, rem, id := failoverCluster(t, 1, 3)
	defer c.Close()
	keys := remoteKeys(c, id, 1)
	if len(keys) == 0 {
		t.Fatal("no key with a remote primary found")
	}
	ops := []Op{{Kind: OpPut, Key: keys[0], Value: []byte("v")}}
	rem.down.Store(true)
	// The detector needs ProbeFailures consecutive transport errors; each
	// failed Apply feeds it one.
	sawTransportErr := false
	for i := 0; i < 3; i++ {
		_, err := c.Apply(ops)
		if err == nil {
			t.Fatalf("Apply %d against dead member succeeded", i)
		}
		if errors.Is(err, errNetDown) {
			sawTransportErr = true
		}
	}
	if !sawTransportErr {
		t.Fatal("mid-Apply transport failure did not surface via errors.Is")
	}
	if !c.MemberDown(id) {
		t.Fatal("repeated Apply failures did not mark the member down (passive detection)")
	}
	if _, err := c.Apply(ops); !errors.Is(err, ErrAllOwnersDown) {
		t.Fatalf("Apply with every owner down = %v, want ErrAllOwnersDown", err)
	}
	if err := c.Put(keys[0], []byte("v")); !errors.Is(err, ErrAllOwnersDown) {
		t.Fatalf("Put with every owner down = %v, want ErrAllOwnersDown", err)
	}
}

// TestApplyRoutesAroundDownMember pins degraded batches under R=2: the
// whole mix keeps succeeding with one member down, reads return the
// written values, and nothing reports stale results.
func TestApplyRoutesAroundDownMember(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 2)
	defer c.Close()
	var writes []Op
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("ar-%04d", i))
		writes = append(writes, Op{Kind: OpPut, Key: k, Value: append([]byte("w-"), k...)})
	}
	if _, err := c.Apply(writes); err != nil {
		t.Fatal(err)
	}
	rem.down.Store(true)
	markDown(t, c, id, 2)
	// Overwrite half the keys and read everything back, all batched.
	var mixed []Op
	for i := 0; i < 200; i += 2 {
		k := []byte(fmt.Sprintf("ar-%04d", i))
		mixed = append(mixed, Op{Kind: OpPut, Key: k, Value: append([]byte("w2-"), k...)})
	}
	if _, err := c.Apply(mixed); err != nil {
		t.Fatalf("degraded write batch: %v", err)
	}
	var reads []Op
	for i := 0; i < 200; i++ {
		reads = append(reads, Op{Kind: OpGet, Key: []byte(fmt.Sprintf("ar-%04d", i))})
	}
	res, err := c.Apply(reads)
	if err != nil {
		t.Fatalf("degraded read batch: %v", err)
	}
	for i, r := range res {
		k := fmt.Sprintf("ar-%04d", i)
		want := "w-" + k
		if i%2 == 0 {
			want = "w2-" + k
		}
		if !r.Found || string(r.Value) != want {
			t.Fatalf("degraded batched read %d = %+v, want %q", i, r, want)
		}
	}
}

// TestRebalanceMidFailureSurfacesError pins the mid-rebalance failure
// path: membership changes that hit a dead member's transport report an
// errors.Is-compatible error instead of a clean MoveReport with keys
// left behind.
func TestRebalanceMidFailureSurfacesError(t *testing.T) {
	c, rem, id := failoverCluster(t, 1, 2)
	defer c.Close()
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("rb-%04d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	rem.down.Store(true)
	if _, _, err := c.AddNode(); !errors.Is(err, errNetDown) {
		t.Fatalf("AddNode with dead member = %v, want errNetDown", err)
	}
	if _, err := c.RemoveNode(id); !errors.Is(err, errNetDown) {
		t.Fatalf("RemoveNode of dead member = %v, want errNetDown", err)
	}
}

// TestProbeRecoveryIsLive pins the background prober wiring end to end
// with an aggressive interval: detection and recovery happen without
// any manual Probe calls.
func TestProbeRecoveryIsLive(t *testing.T) {
	c := New(Config{
		Shards:        1,
		Replication:   2,
		ProbeInterval: time.Millisecond,
		ProbeFailures: 2,
		Engine:        engine.Options{MemtableBytes: 32 << 10},
	})
	defer c.Close()
	rem := newChaosRemote()
	id, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	rem.down.Store(true)
	waitFor(t, "member marked down", func() bool { return c.MemberDown(id) })
	rem.down.Store(false)
	waitFor(t, "member recovered", func() bool { return !c.MemberDown(id) })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
