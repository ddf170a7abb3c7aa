// Elastic-membership integration tests: real transport servers on
// loopback TCP, real gossip, real migration. They live in package
// cluster_test so they can drive the stack through internal/transport
// (which imports cluster) exactly the way bdserve and bdbench do.
package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

// probeInterval is deliberately short: convergence bounds below are
// expressed in probe rounds, and short rounds keep the wall-clock bound
// tight enough for CI.
const probeInterval = 10 * time.Millisecond

// elasticMember is one in-process "bdserve": an elastic cluster node
// plus the transport server exposing it.
type elasticMember struct {
	addr string
	cl   *cluster.Cluster
	srv  *transport.Server
}

func startElasticMember(t *testing.T, repl int, seeds ...string) *elasticMember {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		Shards: 1, Replication: repl,
		SelfAddr:      ln.Addr().String(),
		ProbeInterval: probeInterval,
		ProbeFailures: 2,
		MigrateRate:   64 << 20,
		Dial: func(addr string) (cluster.Remote, error) {
			return transport.Connect(addr, transport.ClientOptions{
				Timeout:     2 * time.Second,
				DialTimeout: 250 * time.Millisecond,
				PingTimeout: 250 * time.Millisecond,
				OnView: func(view []byte) {
					if cl != nil {
						_ = cl.AdoptEncodedView(view)
					}
				},
			})
		},
	})
	srv := transport.Serve(ln, cl, transport.ServerOptions{})
	m := &elasticMember{addr: ln.Addr().String(), cl: cl, srv: srv}
	if len(seeds) > 0 {
		if err := cl.Join(seeds...); err != nil {
			srv.Close()
			cl.Close()
			t.Fatalf("join %v: %v", seeds, err)
		}
	}
	return m
}

// stop tears the member down gracefully (leave first) or abruptly
// (SIGKILL analog: the server vanishes mid-conversation, peers find out
// from the failure detector).
func (m *elasticMember) stop(graceful bool) {
	if graceful {
		_ = m.cl.Leave(5 * time.Second)
	}
	m.srv.Close()
	m.cl.Close()
}

// waitConverged polls until every member reports the same epoch with
// migration settled everywhere, or the probe-round budget runs out.
func waitConverged(t *testing.T, rounds int, members []*elasticMember) uint64 {
	t.Helper()
	deadline := time.Now().Add(time.Duration(rounds) * probeInterval)
	for {
		epoch, digest := members[0].cl.ViewEpoch(), members[0].cl.View().Digest()
		agreed := members[0].cl.Settled()
		for _, m := range members[1:] {
			if m.cl.ViewEpoch() != epoch || m.cl.View().Digest() != digest || !m.cl.Settled() {
				agreed = false
				break
			}
		}
		if agreed {
			return epoch
		}
		if time.Now().After(deadline) {
			for i, m := range members {
				t.Logf("member %d (%s): epoch %d digest %x settled %v",
					i, m.addr, m.cl.ViewEpoch(), m.cl.View().Digest(), m.cl.Settled())
			}
			t.Fatalf("no convergence within %d probe rounds", rounds)
		}
		time.Sleep(probeInterval / 2)
	}
}

// TestGossipConvergenceProperty drives a random join/leave/crash
// schedule over a growing-and-shrinking membership and asserts the
// convergence property the design owes: after the last change, every
// live member reports the same epoch, the same view digest (hence the
// same ownership map), and settled migration within a bounded number of
// probe rounds.
func TestGossipConvergenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-style convergence schedule")
	}
	rng := rand.New(rand.NewSource(1))
	seed := startElasticMember(t, 2)
	live := []*elasticMember{seed, startElasticMember(t, 2, seed.addr)}
	t.Cleanup(func() {
		for _, m := range live {
			m.stop(false)
		}
	})

	const events = 6
	for i := 0; i < events; i++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) <= 2:
			// Join through a random live seed.
			s := live[rng.Intn(len(live))]
			live = append(live, startElasticMember(t, 2, s.addr))
		case op == 1:
			// Graceful leave: drain, announce Left, shut down.
			i := rng.Intn(len(live))
			m := live[i]
			live = append(live[:i], live[i+1:]...)
			m.stop(true)
		default:
			// Crash: the process vanishes; the survivors' failure
			// detector must agree on Down, declare it Left, and heal.
			i := rng.Intn(len(live))
			m := live[i]
			live = append(live[:i], live[i+1:]...)
			m.stop(false)
		}
		time.Sleep(time.Duration(20+rng.Intn(40)) * time.Millisecond)
	}

	// Detection needs ProbeFailures sweeps to call a crashed member
	// down plus ten more sweeps to declare it Left, then a few
	// rounds for dissemination and migration. 300 rounds (3s) bounds
	// the whole schedule's cleanup with a wide CI margin.
	epoch := waitConverged(t, 300, live)
	if epoch == 0 {
		t.Fatal("converged to epoch 0: no membership change was ever agreed")
	}
	if len(live) < 2 {
		t.Fatalf("schedule left %d members; want >= 2", len(live))
	}
}

// TestPartitionHeal builds two independent view islands (disjoint
// clusters that have never heard of each other), then bridges them with
// one gossip exchange and asserts both sides converge to a single view
// whose epoch is at least the max of the islands' — the anti-entropy
// merge can only move epochs forward.
func TestPartitionHeal(t *testing.T) {
	a1 := startElasticMember(t, 2)
	a2 := startElasticMember(t, 2, a1.addr)
	b1 := startElasticMember(t, 2)
	b2 := startElasticMember(t, 2, b1.addr)
	all := []*elasticMember{a1, a2, b1, b2}
	t.Cleanup(func() {
		for _, m := range all {
			m.stop(false)
		}
	})

	waitConverged(t, 200, []*elasticMember{a1, a2})
	waitConverged(t, 200, []*elasticMember{b1, b2})
	epochA, epochB := a1.cl.ViewEpoch(), b1.cl.ViewEpoch()

	// Heal the partition: one exchange across the gap is enough, the
	// probers disseminate the merged view from there.
	if err := a2.cl.Join(b1.addr); err != nil {
		t.Fatalf("bridge join: %v", err)
	}
	epoch := waitConverged(t, 300, all)
	if min := max(epochA, epochB); epoch < min {
		t.Fatalf("merged epoch %d went backwards (islands were at %d and %d)", epoch, epochA, epochB)
	}
	for _, m := range all {
		if len(m.cl.View().Members) != 4 {
			t.Fatalf("member %s: merged view has %d rows; want all 4", m.addr, len(m.cl.View().Members))
		}
	}
}

// TestScanAgreesWithConcurrentJoin is the regression test for the
// scan/migration epoch-agreement bug: a scatter-gather scan racing a
// join must retry on the new view rather than merge partials from two
// ownership maps into duplicates or gaps. Every scan that returns nil
// error must see exactly the preloaded key set, no matter how the
// membership moves underneath it.
func TestScanAgreesWithConcurrentJoin(t *testing.T) {
	m1 := startElasticMember(t, 2)
	m2 := startElasticMember(t, 2, m1.addr)
	members := []*elasticMember{m1, m2}
	t.Cleanup(func() {
		for _, m := range members {
			m.stop(false)
		}
	})
	waitConverged(t, 200, members)

	var coord *cluster.Cluster
	coord = cluster.New(cluster.Config{
		RouteOnly:     true,
		Replication:   2,
		ProbeInterval: probeInterval,
		ProbeFailures: 2,
		Dial: func(addr string) (cluster.Remote, error) {
			return transport.Connect(addr, transport.ClientOptions{
				Timeout:     2 * time.Second,
				DialTimeout: 250 * time.Millisecond,
				PingTimeout: 250 * time.Millisecond,
				OnView: func(view []byte) {
					if coord != nil {
						_ = coord.AdoptEncodedView(view)
					}
				},
			})
		},
	})
	t.Cleanup(coord.Close)
	if err := coord.Join(m1.addr); err != nil {
		t.Fatalf("coordinator join: %v", err)
	}

	const rows = 300
	ops := make([]cluster.Op, 0, 64)
	for lo := 0; lo < rows; lo += 64 {
		ops = ops[:0]
		for i := lo; i < lo+64 && i < rows; i++ {
			key := fmt.Sprintf("scan%04d", i)
			ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: []byte(key), Value: []byte("v-" + key)})
		}
		if _, err := coord.Apply(ops); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	// Join a third member mid-scan-loop: its arrival bumps the epoch
	// and starts moving keyranges the scans span.
	joined := make(chan *elasticMember, 1)
	go func() {
		time.Sleep(25 * time.Millisecond)
		joined <- startElasticMember(t, 2, m1.addr)
	}()

	deadline := time.Now().Add(5 * time.Second)
	scans, raced := 0, 0
	for {
		entries, err := coord.Scan(nil, rows*2)
		if err != nil {
			// The one error a racing membership change may surface is the
			// explicit retry-budget failure — never silent corruption.
			if errors.Is(err, cluster.ErrWrongEpoch) {
				raced++
				continue
			}
			t.Fatalf("scan %d: %v", scans, err)
		}
		if len(entries) != rows {
			t.Fatalf("scan %d: %d entries, want %d (duplicates or gaps mid-join)", scans, len(entries), rows)
		}
		for i, e := range entries {
			want := fmt.Sprintf("scan%04d", i)
			if string(e.Key) != want {
				t.Fatalf("scan %d entry %d: key %q, want %q", scans, i, e.Key, want)
			}
		}
		scans++
		select {
		case m := <-joined:
			members = append(members, m)
		default:
		}
		if len(members) == 3 && scans > 20 && allSettled(members) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join never settled (scans %d, raced %d)", scans, raced)
		}
	}
	t.Logf("%d clean scans, %d raced retries exhausted", scans, raced)

	// The elastic driver of the migration passes owes the same end state
	// the static one does (rebalance_test.go): once every member's drop
	// pass has run, each key sits on exactly its owners under the final
	// ring and nowhere else.
	waitDeadline := time.Now().Add(5 * time.Second)
	for _, m := range members {
		for !m.cl.DropsDone() {
			if time.Now().After(waitDeadline) {
				t.Fatalf("member %s never finished its drop pass", m.addr)
			}
			time.Sleep(probeInterval)
		}
	}
	stores := map[int][]engine.Entry{}
	for _, m := range members {
		entries, err := m.cl.Scan(nil, rows*2) // an elastic member scans its own shard only
		if err != nil {
			t.Fatalf("scan of member %s: %v", m.addr, err)
		}
		stores[cluster.MemberIDForAddr(m.addr)] = entries
	}
	if got := cluster.AssertPlacement(t, stores, coord.View().Ring(), 2); got != rows {
		t.Fatalf("%d distinct keys stored after the join, want %d", got, rows)
	}
}

func allSettled(members []*elasticMember) bool {
	for _, m := range members {
		if !m.cl.Settled() {
			return false
		}
	}
	return true
}

// TestElasticForwarderMirrorsOnce is the regression test for double
// mirroring by elastic forwarders: a member that holds no copy of a key
// forwards the write to the key's lead, which replicates it server-side,
// so the forwarder must not send a replica leg of its own. Every write
// reaches its replica in exactly one OpMirror frame, through both the
// single-key path and the batch planner.
func TestElasticForwarderMirrorsOnce(t *testing.T) {
	a := startElasticMember(t, 2)
	b := startElasticMember(t, 2, a.addr)
	x := startElasticMember(t, 2, a.addr)
	members := []*elasticMember{a, b, x}
	t.Cleanup(func() {
		for _, m := range members {
			m.stop(false)
		}
	})
	waitConverged(t, 300, members)
	dropDeadline := time.Now().Add(5 * time.Second)
	for _, m := range members {
		for !m.cl.DropsDone() {
			if time.Now().After(dropDeadline) {
				t.Fatalf("member %s never finished its drop pass", m.addr)
			}
			time.Sleep(probeInterval)
		}
	}

	// Keys led by a and copied to b: x forwards every one of them.
	idA, idB := cluster.MemberIDForAddr(a.addr), cluster.MemberIDForAddr(b.addr)
	ring := x.cl.View().Ring()
	var keys [][]byte
	for i := 0; len(keys) < 40; i++ {
		k := []byte(fmt.Sprintf("fwd-%04d", i))
		if o := ring.Owners(k, 2); len(o) == 2 && o[0] == idA && o[1] == idB {
			keys = append(keys, k)
		}
	}

	// Migration copies also travel as OpMirror frames: count from here.
	regs := make([]*obs.Registry, len(members))
	before := make([]uint64, len(members))
	for i, m := range members {
		regs[i] = obs.NewRegistry()
		m.srv.RegisterMetrics(regs[i])
		before[i] = mirrorFrames(regs[i])
	}
	for i, k := range keys {
		var err error
		if i%2 == 0 {
			err = x.cl.Put(k, []byte("v"))
		} else {
			_, err = x.cl.Apply([]cluster.Op{{Kind: cluster.OpPut, Key: k, Value: []byte("v")}})
		}
		if err != nil {
			t.Fatalf("write %d through the forwarder: %v", i, err)
		}
	}

	stores := make([][]engine.Entry, len(members))
	for i, m := range members {
		entries, err := m.cl.Scan(nil, 2*len(keys)) // an elastic member scans its own shard only
		if err != nil {
			t.Fatalf("scan of member %s: %v", m.addr, err)
		}
		stores[i] = entries
		replicaCopies := 0
		for _, e := range entries {
			if ring.Primary(e.Key) != cluster.MemberIDForAddr(m.addr) {
				replicaCopies++
			}
		}
		if got := mirrorFrames(regs[i]) - before[i]; got != uint64(replicaCopies) {
			t.Errorf("member %d received %d mirror frames for the %d replica copies it holds", i, got, replicaCopies)
		}
	}
	if len(stores[0]) != len(keys) || len(stores[1]) != len(keys) || len(stores[2]) != 0 {
		t.Fatalf("stores hold %d, %d, %d keys; want %d on the lead and the replica, 0 on the forwarder",
			len(stores[0]), len(stores[1]), len(stores[2]), len(keys))
	}
	for i := range stores[0] {
		if p, r := stores[0][i], stores[1][i]; string(p.Key) != string(r.Key) || string(p.Value) != string(r.Value) {
			t.Fatalf("copy %d differs: lead %q=%q, replica %q=%q", i, p.Key, p.Value, r.Key, r.Value)
		}
	}
}

// mirrorFrames reads the server's count of OpMirror requests received.
func mirrorFrames(reg *obs.Registry) uint64 {
	v, _ := reg.Capture("").Lookup("bd_transport_requests_total", `{op="mirror"}`)
	return v.Uint()
}
