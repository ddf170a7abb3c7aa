package cluster

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestClusterMetricsFamilies drives the failover machinery with the
// registry attached and asserts the bd_cluster_* / bd_engine_* series
// track it: down members, pending and replayed hints, read and write
// failovers, engine counters, and a static membership change's data
// movement — all collected without any scrape RPC.
func TestClusterMetricsFamilies(t *testing.T) {
	c, rem, id := failoverCluster(t, 2, 2)
	defer c.Close()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	keys := remoteKeys(c, id, 20)
	if len(keys) < 20 {
		t.Fatal("no keys with a remote primary found")
	}
	for _, k := range keys {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap["bd_cluster_members"].Float() != 2 || snap["bd_cluster_members_down"].Float() != 0 {
		t.Fatalf("healthy membership gauges: members=%v down=%v",
			snap["bd_cluster_members"], snap["bd_cluster_members_down"])
	}
	if snap["bd_engine_puts_total"].Float() == 0 {
		t.Fatal("local engine puts not visible in bd_engine_puts_total")
	}
	if snap[`bd_cluster_failovers_total{kind="write"}`].Float() != 0 {
		t.Fatal("write failovers counted on a healthy cluster")
	}

	rem.down.Store(true)
	markDown(t, c, id, 2)
	for _, k := range keys {
		if err := c.Put(k, append([]byte("f-"), k...)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); !ok {
			t.Fatalf("degraded read of %q missed", k)
		}
	}
	snap = reg.Snapshot()
	if snap["bd_cluster_members_down"].Float() != 1 {
		t.Fatalf("members_down = %v, want 1", snap["bd_cluster_members_down"])
	}
	if snap["bd_cluster_hints_pending"].Float() == 0 {
		t.Fatal("no pending hints visible while the primary is down")
	}
	if snap[`bd_cluster_failovers_total{kind="write"}`].Float() == 0 {
		t.Fatal("write failovers not counted")
	}
	if snap[`bd_cluster_failovers_total{kind="read"}`].Float() == 0 {
		t.Fatal("read failovers not counted")
	}

	rem.down.Store(false)
	c.Probe()
	snap = reg.Snapshot()
	if snap["bd_cluster_members_down"].Float() != 0 {
		t.Fatalf("members_down after recovery = %v, want 0", snap["bd_cluster_members_down"])
	}
	if snap["bd_cluster_hints_pending"].Float() != 0 {
		t.Fatalf("hints still pending after replay: %v", snap["bd_cluster_hints_pending"])
	}
	if snap["bd_cluster_hints_replayed_total"].Float() == 0 {
		t.Fatal("replayed hints not counted")
	}

	// A static membership change runs the migrator's passes, so it shows
	// in the migration series like an elastic one and ends settled.
	if _, _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	for _, name := range []string{
		"bd_cluster_migration_keys_total",
		"bd_cluster_migration_bytes_total",
		"bd_cluster_migration_dropped_total",
	} {
		if snap[name].Float() == 0 {
			t.Fatalf("%s = 0 after an AddNode that moved data", name)
		}
	}
	if snap["bd_cluster_settled"].Float() != 1 {
		t.Fatalf("bd_cluster_settled = %v after AddNode returned, want 1", snap["bd_cluster_settled"])
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`bd_engine_level_bytes{level="0"}`,
		"# TYPE bd_cluster_failovers_total counter",
		"# TYPE bd_cluster_hints_pending gauge",
	} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("exposition missing %q", frag)
		}
	}
}
