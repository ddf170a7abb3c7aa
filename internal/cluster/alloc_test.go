//go:build !race

// Allocation guards for the coordinator's replicated write path, beside
// the transport's own in internal/transport/alloc_test.go: hard ceilings,
// not benchmarks. Excluded under the race detector, whose instrumentation
// inflates malloc counts.
package cluster

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// TestReplicatedApplyAllocBudget pins a 16-op mixed ApplyInto at R=2: the
// sub-batch arena, the planner's owner lookups, the engine write runs and
// the per-target mirror legs all recycle with the pooled applyState, so
// past what the engines themselves allocate (measured here, twice over
// for the two copies) the coordinator adds nothing per batch when local
// nodes lead. Over loopRemote fakes two sub-batch goroutine starts
// remain, plus the fakes' own cost — each of the four batch calls (two
// primary, two mirror) allocates its result slice inside the backing
// cluster. Two allocations of headroom; a return to per-op scratch costs
// eight.
func TestReplicatedApplyAllocBudget(t *testing.T) {
	ops := make([]Op, 16)
	var writes []engine.BatchOp
	for i := range ops {
		key := fmt.Appendf(nil, "alloc-%02d", i)
		if i%2 == 0 {
			ops[i] = Op{Kind: OpPut, Key: key, Value: []byte("value")}
			writes = append(writes, batchOp(ops[i]))
		} else {
			ops[i] = Op{Kind: OpGet, Key: key}
		}
	}
	// Default engine options throughout: a 1 MiB memtable never flushes
	// inside the measurement.
	eng, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	engines := 2*testing.AllocsPerRun(200, func() { eng.WriteBatch(writes) }) +
		testing.AllocsPerRun(200, func() {
			for i := 1; i < len(ops); i += 2 {
				eng.Get(ops[i].Key)
			}
		})

	res := make([]OpResult, len(ops))
	measure := func(name string, c *Cluster, max float64) {
		t.Helper()
		for i := 0; i < 64; i++ { // warm the pools and the arenas
			if err := c.ApplyInto(ops, res); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if err := c.ApplyInto(ops, res); err != nil {
				t.Fatal(err)
			}
		})
		if got > max {
			t.Errorf("%s: %.1f allocs per 16-op R=2 batch (engines' share %.1f), want <= %.1f", name, got, engines, max)
		}
	}

	local := New(Config{Shards: 2, Replication: 2})
	defer local.Close()
	measure("local leads", local, engines+2)

	remote := NewEmpty(Config{Replication: 2, ProbeInterval: -1})
	defer remote.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := remote.AddRemote(&loopRemote{c: New(Config{Shards: 1})}); err != nil {
			t.Fatal(err)
		}
	}
	measure("remote leads", remote, engines+4+2+2)
}

// TestScanAllocBudget pins a 100-row AppendScan over two in-process
// shards into a reused dst. The engines hand out their rows without
// copying, the partial buffers come from the pooled scatter and the
// first leg runs on the caller, so two allocations are left: the ring's
// member list and the second leg's goroutine start. Two allocations of
// headroom; a per-row copy costs a hundred.
func TestScanAllocBudget(t *testing.T) {
	c := New(Config{Shards: 2})
	defer c.Close()
	const rows = 100
	for i := 0; i < 2*rows; i++ {
		if err := c.Put(fmt.Appendf(nil, "scan-%03d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]engine.Entry, 0, rows)
	scan := func() {
		out, err := c.AppendScan(dst[:0], nil, rows)
		if err != nil || len(out) != rows {
			t.Fatalf("scan: %d rows, %v", len(out), err)
		}
		dst = out
	}
	for i := 0; i < 64; i++ { // warm the scatter pool
		scan()
	}
	if got := testing.AllocsPerRun(200, scan); got > 2+2 {
		t.Errorf("AppendScan: %.1f allocs per 100-row two-shard scan, want <= %d", got, 2+2)
	}
}
