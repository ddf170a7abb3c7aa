package cluster

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

func eventKinds(log *obs.EventLog) map[obs.EventKind]int {
	out := map[obs.EventKind]int{}
	for _, e := range log.Events() {
		out[e.Kind]++
	}
	return out
}

// TestClusterLifecycleEvents drives a full outage cycle — failovers,
// hint buffering past the bound, recovery with replay — and asserts the
// event log tells that story without flooding: per-request emit sites
// (failover, hint drop) log once per down episode, and the replay event
// carries the drained count.
func TestClusterLifecycleEvents(t *testing.T) {
	log := obs.NewEventLog(64)
	c := New(Config{
		Shards:        1,
		Replication:   2,
		ProbeInterval: -1,
		ProbeFailures: 2,
		HintLimit:     4,
		Events:        log,
		Engine:        engine.Options{MemtableBytes: 32 << 10},
	})
	defer c.Close()
	rem := newChaosRemote()
	id, _, err := c.AddRemote(rem)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range remoteKeys(c, id, 10) {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Joins commit views and run the migration passes like any membership
	// change, so set-up already has a timeline — of those kinds only.
	before := eventKinds(log)
	for kind, n := range before {
		switch kind {
		case obs.EventViewCommit, obs.EventMigrationStart, obs.EventMigrationEnd:
		default:
			t.Fatalf("healthy cluster recorded %d %v events, want no failover, hint or detector event", n, kind)
		}
	}

	// A static membership change over data is on the same timeline as an
	// elastic one: the commit that moved ownership, then the copy pass's
	// start and its settle, once each.
	_, report, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if report.Copied == 0 {
		t.Fatal("AddNode over a populated ring moved nothing")
	}
	after := eventKinds(log)
	for _, kind := range []obs.EventKind{obs.EventViewCommit, obs.EventMigrationStart, obs.EventMigrationEnd} {
		if got := after[kind] - before[kind]; got != 1 {
			t.Fatalf("AddNode recorded %d %v events, want exactly 1", got, kind)
		}
	}

	keys := remoteKeys(c, id, 10)
	if len(keys) < 10 {
		t.Fatal("no keys with a remote primary found")
	}
	for _, k := range keys {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	rem.down.Store(true)
	markDown(t, c, id, 2)
	for _, k := range keys {
		if err := c.Put(k, append([]byte("f-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	kinds := eventKinds(log)
	// Ten failed-over writes and six over-bound hints, but one event
	// each: the per-episode throttle keeps the ring for transitions.
	if kinds[obs.EventFailover] != 1 {
		t.Fatalf("failover events = %d, want exactly 1 for the episode", kinds[obs.EventFailover])
	}
	if kinds[obs.EventHintDrop] != 1 {
		t.Fatalf("hint-drop events = %d, want exactly 1 for the episode", kinds[obs.EventHintDrop])
	}

	rem.down.Store(false)
	c.Probe()
	if c.MemberDown(id) {
		t.Fatal("member still down after recovery probe")
	}
	kinds = eventKinds(log)
	if kinds[obs.EventHintReplay] != 1 {
		t.Fatalf("hint-replay events = %d, want 1", kinds[obs.EventHintReplay])
	}
	var replay obs.Event
	for _, e := range log.Events() {
		if e.Kind == obs.EventHintReplay {
			replay = e
		}
	}
	if !strings.Contains(replay.Detail, "replayed 4") {
		t.Fatalf("replay detail = %q, want the drained count (HintLimit=4)", replay.Detail)
	}

	// A second outage is a new episode: the throttles re-armed.
	rem.down.Store(true)
	markDown(t, c, id, 2)
	if err := c.Put(keys[0], []byte("again")); err != nil {
		t.Fatal(err)
	}
	if kinds = eventKinds(log); kinds[obs.EventFailover] != 2 {
		t.Fatalf("failover events after second outage = %d, want 2", kinds[obs.EventFailover])
	}
}
