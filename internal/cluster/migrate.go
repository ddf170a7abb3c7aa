package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file moves data when ownership moves. Every epoch bump (a member
// joined, left, or was declared dead) changes which members own which
// keyranges; the migrator is the background loop that makes storage
// catch up with the view, throttled so live traffic keeps its latency.
//
// The protocol, per member, per unsettled epoch:
//
//  1. Copy pass. Snapshot-scan the local engine (so the source is
//     internally consistent even under live writes) and, for every key
//     this member is the responsible pusher for — the first old owner
//     under the last settled view that is still eligible — push a copy
//     to each owner the key gained under the current view, paced to
//     Config.MigrateRate bytes/s. Copies are gathered per destination
//     and travel in chunks of up to MaxBatch as OpMirror(migration)
//     frames (migPush); they land with store-only semantics: no replica
//     fan-out, and never over a key the destination wrote after the
//     epoch began (the dirty-guard below, consulted per key).
//  2. Redrive. Keys written live while the pass ran are re-pushed from
//     their current engine value — a write that raced the snapshot may
//     have been coordinated by a member still routing under the old
//     view, so its mirrors missed the new owner.
//  3. Settle. Publish our row's Settled = epoch watermark and gossip it.
//     When every live row settles, the epoch is done cluster-wide:
//     lastSettled advances, read fallbacks stop, guards come off.
//  4. Drop pass. Only after the cluster settles, delete keyranges this
//     member no longer owns. Dropping earlier would destroy the copies
//     the read fallback still depends on.
//
// Writes racing a moving keyrange are protected by the dirty-guard: an
// armed guard marks every locally written key, and a migration copy for
// a marked key is skipped while holding the guard lock — so "copy then
// newer write" and "newer write then copy" both leave the newer value.

// migrationGuard shadows migration copies with live writes for one
// epoch. mark and the copy-side check serialize on mu: a live write
// marks its key before applying, a migration copy applies while holding
// mu only if the key is unmarked — every interleaving leaves the live
// write's value on top.
type migrationGuard struct {
	epoch uint64
	mu    sync.Mutex
	dirty map[string]struct{}
	// pending queues marked keys for the redrive step (dirty stays
	// intact afterwards — it must keep shadowing stale copies).
	pending []string
}

func newMigrationGuard(epoch uint64) *migrationGuard {
	return &migrationGuard{epoch: epoch, dirty: map[string]struct{}{}}
}

// mark records a live write. Called on every local write while the
// guard is armed.
func (g *migrationGuard) mark(key []byte) {
	g.mu.Lock()
	k := string(key)
	g.dirty[k] = struct{}{}
	g.pending = append(g.pending, k)
	g.mu.Unlock()
}

// takePending swaps out the redrive queue.
func (g *migrationGuard) takePending() []string {
	g.mu.Lock()
	p := g.pending
	g.pending = nil
	g.mu.Unlock()
	return p
}

// startMigratorLocked launches the background migration loop once.
// Caller holds mu.
func (c *Cluster) startMigratorLocked() {
	if c.migStop != nil || c.selfID < 0 {
		return
	}
	c.migStop = make(chan struct{})
	c.migKick = make(chan struct{}, 1)
	c.migDone = make(chan struct{})
	go c.migratorLoop(c.migStop, c.migKick, c.migDone)
}

func (c *Cluster) migratorLoop(stop, kick <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-kick:
		case <-t.C:
		}
		c.migrateStep()
	}
}

// migrateStep advances this member's migration state machine one move:
// run the copy pass if our watermark trails the epoch, redrive raced
// writes while the epoch is still settling elsewhere, or run the drop
// pass once the whole cluster has settled.
func (c *Cluster) migrateStep() {
	c.mu.RLock()
	if c.closed || c.view == nil {
		c.mu.RUnlock()
		return
	}
	v, base := c.view, c.lastSettled
	drops := c.dropsDone
	c.mu.RUnlock()
	row, ok := v.Member(c.selfID)
	node := c.localNode()
	if !ok || node == nil {
		return
	}
	switch {
	case row.Settled < v.Epoch:
		if c.migStartEpoch.Load() < v.Epoch {
			// Once per epoch, not per retry: an aborted pass re-enters
			// here on the next tick.
			c.migStartEpoch.Store(v.Epoch)
			c.events.Record(obs.Event{
				Kind: obs.EventMigrationStart, Epoch: v.Epoch,
				Detail: fmt.Sprintf("copy pass toward epoch %d began", v.Epoch),
			})
		}
		if !c.copyPass(v, base, node) {
			return // aborted (epoch moved, peer unreachable): retry next tick
		}
		c.redrive(v, node)
		c.settleSelf(v.Epoch)
		c.gossipNow() // move the watermark without waiting a sweep
	case !v.AllSettled():
		// Our pass is done but peers are still settling: keep redriving
		// writes coordinated by members that still route on the old view.
		c.redrive(v, node)
	case drops < v.Epoch && row.Status != StatusLeaving && row.Status != StatusLeft:
		c.dropPass(v, node)
	}
}

// localNode is localNodeLocked behind the read lock.
func (c *Cluster) localNode() *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.localNodeLocked()
}

// memberFor resolves a view member id to its dialed wrapper (nil while
// undialed).
func (c *Cluster) memberFor(id int) *memberState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

func (c *Cluster) isClosed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.closed
}

// responsiblePusher reports whether this member must push the key: it is
// the first owner under the old (base) ownership that is still eligible
// to push — self, or any peer the current view does not rule out
// (Down and Left members cannot push; their share falls to the next old
// owner). Deterministic, so each key is pushed by exactly one live
// member.
func (c *Cluster) responsiblePusher(v *ClusterView, oldOwners []int) bool {
	for _, id := range oldOwners {
		if id == c.selfID {
			return true
		}
		if row, ok := v.Member(id); ok && (row.Status <= StatusSuspect || row.Status == StatusLeaving) {
			return false // a live earlier owner pushes instead
		}
	}
	return false
}

// migPush gathers the migration copies of one scan page per destination
// and sends them as store-only chunks: one frame, one epoch check and one
// throttle charge per chunk instead of per key.
type migPush struct {
	c     *Cluster
	epoch uint64
	dests []migDest
	// rate > 0 paces delivered bytes against the clock started at start.
	rate  int
	sent  int
	start time.Time
}

type migDest struct {
	id  int
	ops []Op
}

// add queues one copy for member id.
func (p *migPush) add(id int, op Op) {
	for i := range p.dests {
		if p.dests[i].id == id {
			p.dests[i].ops = append(p.dests[i].ops, op)
			return
		}
	}
	p.dests = append(p.dests, migDest{id: id, ops: []Op{op}})
}

// flush sends everything queued, in order per destination, and returns
// the ops that were not delivered: a destination that is not dialed yet
// or fails a chunk gives up its remainder, so a dead peer costs one
// failed round trip per flush.
func (p *migPush) flush() (failed []Op) {
	chunk := p.c.cfg.MaxBatch
	for i := range p.dests {
		d := &p.dests[i]
		tgt := p.c.memberFor(d.id)
		for ops := d.ops; len(ops) > 0; {
			n := min(len(ops), chunk)
			if tgt == nil || tgt.applyLocal(ops[:n], true, p.epoch) != nil {
				failed = append(failed, ops...)
				break
			}
			bytes := 0
			for _, op := range ops[:n] {
				bytes += len(op.Key) + len(op.Value)
			}
			p.c.migKeys.Add(uint64(n))
			p.c.migBytes.Add(uint64(bytes))
			p.sent += bytes
			if p.rate > 0 {
				// Throttle: sleep off any debt against the byte budget so
				// migration never outruns MigrateRate for long.
				if ahead := time.Duration(p.sent)*time.Second/time.Duration(p.rate) - time.Since(p.start); ahead > 0 {
					time.Sleep(ahead)
				}
			}
			ops = ops[n:]
		}
		d.ops = d.ops[:0]
	}
	return failed
}

// copyPass pushes every key this member is responsible for to the owners
// it gained under v, paced to Config.MigrateRate. Returns false when the
// pass aborted — the epoch moved under it, a destination is not dialed
// yet, or a push failed — in which case the next tick retries from the
// top (pushes are idempotent PUT copies, so re-covering ground is safe).
func (c *Cluster) copyPass(v, base *ClusterView, node *Node) bool {
	r := v.R
	if r <= 0 {
		r = 1
	}
	oldRing := base.Ring()
	newRing := v.Ring()
	push := migPush{c: c, epoch: v.Epoch, rate: c.cfg.MigrateRate, start: time.Now()}
	var cursor []byte
	for {
		if c.isClosed() || c.epoch.Load() != v.Epoch {
			return false
		}
		entries, err := node.snapshotScan(nil, cursor, 256)
		if err != nil || len(entries) == 0 {
			return err == nil
		}
		for i := range entries {
			e := &entries[i]
			oldOwners := oldRing.Owners(e.Key, r)
			if !c.responsiblePusher(v, oldOwners) {
				continue
			}
			for _, id := range newRing.Owners(e.Key, r) {
				if id == c.selfID || containsID(oldOwners, id) {
					continue // the destination already holds a settled copy
				}
				push.add(id, Op{Kind: OpPut, Key: e.Key, Value: e.Value})
			}
		}
		if len(push.flush()) > 0 {
			return false // undialed or unreachable destination: retry next tick
		}
		cursor = append(cursor[:0], entries[len(entries)-1].Key...)
		cursor = append(cursor, 0) // strictly after the last scanned key
	}
}

// redrive re-pushes keys written live since the copy pass's snapshot:
// their writes may have been coordinated under a stale view whose mirror
// set missed the key's new owners. The current engine value (or its
// absence, for deletes) is pushed to every current owner; destinations
// that saw a newer write skip it via their own guard.
func (c *Cluster) redrive(v *ClusterView, node *Node) {
	g := node.guard.Load()
	if g == nil || g.epoch != v.Epoch {
		return
	}
	keys := g.takePending()
	r := v.R
	if r <= 0 {
		r = 1
	}
	ring := v.Ring()
	push := migPush{c: c, epoch: v.Epoch}
	var requeue []string
	for len(keys) > 0 {
		page := keys[:min(len(keys), 256)]
		keys = keys[len(page):]
		for _, k := range page {
			key := []byte(k)
			op := Op{Kind: OpDelete, Key: key}
			if val, ok, err := node.directGet(key); err != nil {
				continue
			} else if ok {
				op = Op{Kind: OpPut, Key: key, Value: val}
			}
			for _, id := range ring.Owners(key, r) {
				if id != c.selfID {
					push.add(id, op)
				}
			}
		}
		for _, op := range push.flush() {
			requeue = append(requeue, string(op.Key))
		}
	}
	if len(requeue) > 0 {
		g.mu.Lock()
		g.pending = append(g.pending, requeue...)
		g.mu.Unlock()
	}
}

// settleSelf publishes our Settled watermark for the epoch. If the view
// moved on while the pass ran, the commit guard in migrateStep already
// re-ran us; publishing a stale watermark is harmless (max-merge).
func (c *Cluster) settleSelf(epoch uint64) {
	c.mu.Lock()
	if c.closed || c.view == nil || c.view.Epoch != epoch {
		c.mu.Unlock()
		return
	}
	row, ok := c.view.Member(c.selfID)
	if !ok || row.Settled >= epoch {
		c.mu.Unlock()
		return
	}
	row.Settled = epoch
	c.events.Record(obs.Event{
		Kind: obs.EventMigrationEnd, Epoch: epoch,
		Detail: fmt.Sprintf("epoch %d settled locally: migrated copies durable", epoch),
	})
	c.commitViewLocked(c.view.withRow(row))
	v := c.view
	cb := c.cfg.OnViewChange
	c.mu.Unlock()
	if cb != nil {
		cb(v)
	}
}

// dropPass deletes keys this member no longer owns under v. It runs only
// after the whole cluster settled the epoch — every gained owner holds
// its copy, so the local one is surplus.
func (c *Cluster) dropPass(v *ClusterView, node *Node) {
	r := v.R
	if r <= 0 {
		r = 1
	}
	ring := v.Ring()
	var cursor []byte
	for {
		if c.isClosed() || c.epoch.Load() != v.Epoch {
			return
		}
		entries, err := node.snapshotScan(nil, cursor, 256)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			break
		}
		for i := range entries {
			e := &entries[i]
			if !containsID(ring.Owners(e.Key, r), c.selfID) {
				if err := node.directDelete(e.Key); err == nil {
					c.migDropped.Add(1)
				}
			}
		}
		cursor = append(cursor[:0], entries[len(entries)-1].Key...)
		cursor = append(cursor, 0)
	}
	c.mu.Lock()
	if c.view != nil && c.view.Epoch == v.Epoch && c.dropsDone < v.Epoch {
		c.dropsDone = v.Epoch
	}
	c.mu.Unlock()
}

func containsID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
