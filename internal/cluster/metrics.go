package cluster

import (
	"repro/internal/engine"
	"repro/internal/obs"
)

// Failovers returns how many reads and writes the coordinator has
// served around a failed primary.
func (c *Cluster) Failovers() (reads, writes uint64) {
	return c.readFailovers.Load(), c.writeFailovers.Load()
}

// healthCounters sums the coordinator-side health state across members
// without paying any RPC — hint buffers and detector verdicts live in
// the memberState wrappers, so a metrics scrape never touches the wire.
func (c *Cluster) healthCounters() (pending, replayed, dropped uint64, down int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.nodes {
		pending += uint64(m.hintsPending())
		replayed += m.replayed.Load()
		dropped += m.dropped.Load()
		if m.isDown() {
			down++
		}
	}
	return pending, replayed, dropped, down
}

// localCounters sums the queue/op counters of in-process members only.
// Remote members' counters live in their own server's registry; a
// collector that wants the cluster total merges the registries.
func (c *Cluster) localCounters() (accepted, rejected, batches, ops uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.nodes {
		if n, ok := m.member.(*Node); ok {
			accepted += n.accepted.Load()
			rejected += n.rejected.Load()
			batches += n.batches.Load()
			ops += n.ops.Load()
		}
	}
	return accepted, rejected, batches, ops
}

// LocalEngineStats sums the storage-engine counters of in-process
// members (cheap atomic loads; remote members report through their own
// node's metrics endpoint).
func (c *Cluster) LocalEngineStats() engine.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var st engine.Stats
	for _, m := range c.nodes {
		if n, ok := m.member.(*Node); ok {
			addEngineStats(&st, n.eng.Stats())
		}
	}
	return st
}

// MigrationStats reports the online-migration counters: key copies
// pushed, bytes pushed, and keys deleted by post-settle drop passes.
// Benchmarks and tests read it directly; dashboards get the same values
// via the bd_cluster_migration_* series.
func (c *Cluster) MigrationStats() (keys, bytes, dropped uint64) {
	return c.migKeys.Load(), c.migBytes.Load(), c.migDropped.Load()
}

// RegisterMetrics exports the coordinator's health, routing and engine
// counters into r under the bd_cluster_* and bd_engine_* families
// (DESIGN.md §11). Everything is collected at scrape time from state
// the coordinator already holds — no RPCs, no new hot-path work.
func (c *Cluster) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("bd_cluster_members", "Known members, including departed tombstones.", nil,
		func() float64 { return float64(c.Nodes()) })
	r.GaugeFunc("bd_cluster_ring_members", "Members currently owning keyranges on the ring.", nil,
		func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(c.ring.Size())
		})
	r.GaugeFunc("bd_cluster_members_down", "Members the failure detector considers down.", nil,
		func() float64 { _, _, _, down := c.healthCounters(); return float64(down) })
	r.GaugeFunc("bd_cluster_hints_pending", "Hinted-handoff writes buffered for down members.", nil,
		func() float64 { p, _, _, _ := c.healthCounters(); return float64(p) })
	r.CounterFunc("bd_cluster_hints_replayed_total", "Hinted writes replayed onto recovered members.", nil,
		func() uint64 { _, rep, _, _ := c.healthCounters(); return rep })
	r.CounterFunc("bd_cluster_hints_dropped_total", "Hinted writes dropped past the buffer bound.", nil,
		func() uint64 { _, _, d, _ := c.healthCounters(); return d })
	r.CounterFunc("bd_cluster_failovers_total", "Requests served around a failed primary, by kind.",
		obs.Labels{"kind": "read"}, c.readFailovers.Load)
	r.CounterFunc("bd_cluster_failovers_total", "Requests served around a failed primary, by kind.",
		obs.Labels{"kind": "write"}, c.writeFailovers.Load)
	r.CounterFunc("bd_cluster_accepted_total", "Sub-batches enqueued on local members.", nil,
		func() uint64 { a, _, _, _ := c.localCounters(); return a })
	r.CounterFunc("bd_cluster_rejected_total", "Sub-batches shed by local admission control.", nil,
		func() uint64 { _, rej, _, _ := c.localCounters(); return rej })
	r.CounterFunc("bd_cluster_batches_total", "Worker drain cycles on local members.", nil,
		func() uint64 { _, _, b, _ := c.localCounters(); return b })
	r.CounterFunc("bd_cluster_ops_total", "Point ops executed on local members.", nil,
		func() uint64 { _, _, _, o := c.localCounters(); return o })

	// Membership: view agreement and migration progress. Static clusters
	// commit the same views and run the same passes (AddNode and friends
	// bump the epoch and count their copies and drops here; settled reads
	// 0 only while a change that failed part-way awaits its retry), so
	// dashboards need no mode switch.
	r.GaugeFunc("bd_cluster_epoch", "Current membership view epoch.", nil,
		func() float64 { return float64(c.epoch.Load()) })
	r.GaugeFunc("bd_cluster_settled", "1 when every live member settled the current epoch, 0 while migration is in flight.", nil,
		func() float64 {
			if c.Settled() {
				return 1
			}
			return 0
		})
	r.CounterFunc("bd_cluster_view_changes_total", "Membership view commits that changed the epoch.", nil,
		c.viewChanges.Load)
	r.CounterFunc("bd_cluster_gossip_rounds_total", "Anti-entropy view exchanges served or swept.", nil,
		c.gossipRounds.Load)
	r.CounterFunc("bd_cluster_migration_bytes_total", "Bytes pushed by migration (copy passes and redrives).", nil,
		c.migBytes.Load)
	r.CounterFunc("bd_cluster_migration_keys_total", "Key copies pushed by migration.", nil,
		c.migKeys.Load)
	r.CounterFunc("bd_cluster_migration_dropped_total", "Keys deleted by post-settle drop passes (no longer owned here).", nil,
		c.migDropped.Load)
	r.CounterFunc("bd_cluster_migration_skipped_total", "Migration copies shadowed by newer live writes (dirty-guard hits).", nil,
		func() uint64 {
			c.mu.RLock()
			n := c.localNodeLocked()
			c.mu.RUnlock()
			if n == nil {
				return 0
			}
			return n.guardSkips.Load()
		})

	type engineCounter struct {
		name, help string
		get        func(engine.Stats) uint64
	}
	for _, ec := range []engineCounter{
		{"bd_engine_puts_total", "Engine point writes.", func(s engine.Stats) uint64 { return s.Puts }},
		{"bd_engine_gets_total", "Engine point reads.", func(s engine.Stats) uint64 { return s.Gets }},
		{"bd_engine_deletes_total", "Engine deletes.", func(s engine.Stats) uint64 { return s.Deletes }},
		{"bd_engine_scans_total", "Engine range scans.", func(s engine.Stats) uint64 { return s.Scans }},
		{"bd_engine_scanned_entries_total", "Entries returned by scans.", func(s engine.Stats) uint64 { return s.ScannedEntries }},
		{"bd_engine_flushes_total", "Memtable flushes.", func(s engine.Stats) uint64 { return s.Flushes }},
		{"bd_engine_compactions_total", "Compaction passes.", func(s engine.Stats) uint64 { return s.Compactions }},
		{"bd_engine_bloom_negative_total", "Reads skipped by bloom filters.", func(s engine.Stats) uint64 { return s.BloomNegative }},
		{"bd_engine_runs_probed_total", "Immutable runs probed by reads.", func(s engine.Stats) uint64 { return s.RunsProbed }},
		{"bd_engine_wal_bytes_total", "Bytes appended to write-ahead logs.", func(s engine.Stats) uint64 { return s.WALBytes }},
		{"bd_engine_block_cache_hits_total", "Block cache hits.", func(s engine.Stats) uint64 { return s.BlockCacheHits }},
		{"bd_engine_block_cache_misses_total", "Block cache misses.", func(s engine.Stats) uint64 { return s.BlockCacheMisses }},
	} {
		get := ec.get
		r.CounterFunc(ec.name, ec.help, nil, func() uint64 { return get(c.LocalEngineStats()) })
	}
	// The store keeps one flat run set, so the level label has one value.
	r.GaugeFunc("bd_engine_level_bytes", "Logical bytes in the immutable LSM runs across local shards.",
		obs.Labels{"level": "0"},
		func() float64 { return float64(c.LocalEngineStats().RunBytes) })
}
