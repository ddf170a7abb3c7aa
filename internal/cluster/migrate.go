package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// This file moves data when ownership moves. Every epoch bump (a member
// joined, left, or was declared dead) changes which members own which
// keyranges, and one pair of passes makes storage catch up with the
// view: copyPass pushes each key to the owners it gained, dropPass
// deletes it from the members that lost it — always in that order, so a
// pass that stops half way leaves surplus copies, never a missing one.
//
// Two drivers run the passes. An elastic member runs them for its own
// shard from the background loop below, beside live traffic, throttled
// so that traffic keeps its latency. A static coordinator
// (rebalance.go) runs them for every member of its ring, synchronously,
// under the topology write lock AddNode/RemoveNode/AddRemote already
// hold. What differs between them is what each hands its migPush.
//
// The protocol, per member, per unsettled epoch:
//
//  1. Copy pass. Snapshot-scan the member's store (so the source is
//     internally consistent even under live writes) and, for every key
//     the member is the responsible pusher for — the first old owner
//     under the last settled view that is still eligible — push a copy
//     to each owner the key gained under the current view, paced to
//     Config.MigrateRate bytes/s. Copies are gathered per destination
//     and travel in chunks of up to maxBatch as OpMirror(migration)
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
// Step 2 and the guard exist for live traffic only; the static driver
// has none to race.

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
	if c.closed {
		c.mu.RUnlock()
		return
	}
	v, base := c.view, c.lastSettled
	drops := c.dropsDone
	self, node := c.nodes[c.selfID], c.localNodeLocked()
	c.mu.RUnlock()
	row, ok := v.Member(c.selfID)
	if !ok || node == nil {
		return
	}
	switch {
	case row.Settled < v.Epoch:
		c.noteMigrationStart(v.Epoch)
		push := c.livePush(v.Epoch, c.cfg.MigrateRate)
		if push.copyPass(self, v, base) != nil {
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
		push := c.livePush(v.Epoch, 0)
		if push.dropPass(self, v) != nil {
			return // retry next tick
		}
		c.mu.Lock()
		if c.view.Epoch == v.Epoch && c.dropsDone < v.Epoch {
			c.dropsDone = v.Epoch
		}
		c.mu.Unlock()
	}
}

// noteMigrationStart records the epoch's migration-start event once, not
// per retry: an aborted copy pass re-enters on the next tick (or the
// next RemoveNode call).
func (c *Cluster) noteMigrationStart(epoch uint64) {
	if c.migStartEpoch.Load() < epoch {
		c.migStartEpoch.Store(epoch)
		c.events.Record(obs.Event{
			Kind: obs.EventMigrationStart, Epoch: epoch,
			Detail: fmt.Sprintf("copy pass toward epoch %d began", epoch),
		})
	}
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

// responsiblePusher reports whether member src must push the key: it is
// the first owner under the old (base) ownership that is still eligible
// to push — src itself, or any peer the current view does not rule out
// (Down and Left members cannot push; their share falls to the next old
// owner). Deterministic, so each key is pushed by exactly one live
// member.
func responsiblePusher(src int, v *ClusterView, oldOwners []int) bool {
	for _, id := range oldOwners {
		if id == src {
			return true
		}
		if row, ok := v.Member(id); ok && (row.Status <= StatusSuspect || row.Status == StatusLeaving) {
			return false // a live earlier owner pushes instead
		}
	}
	return false
}

// migPush is one driver's run of the passes. It gathers the migration
// copies of one scan page per destination and sends them as store-only
// chunks: one frame, one epoch check and one throttle charge per chunk
// instead of per key.
type migPush struct {
	c     *Cluster
	dests []migDest
	// The driver's three answers (livePush beside traffic, rebalanceLocked
	// under the topology lock). member resolves a destination id, nil while
	// undialed. stale reports that the pass outlived its plan: the cluster
	// closed or the epoch moved under it. deliver lands one chunk on m's
	// own store; copies additionally yield to whatever guards the receiver
	// has armed.
	member  func(id int) *memberState
	stale   func() bool
	deliver func(m *memberState, ops []Op, copies bool) error
	// rate > 0 paces delivered bytes against the clock started at start.
	rate  int
	sent  int
	start time.Time
	// report counts what the passes scanned, copied and dropped; err is
	// the first delivery failure.
	report MoveReport
	err    error
}

type migDest struct {
	id  int
	ops []Op
}

var errUndialed = errors.New("member not dialed yet")

// livePush is the elastic driver's migPush. Beside live traffic every
// member lookup takes the topology lock briefly, a pass aborts when the
// epoch moves, and chunks land as store-only applies fenced by the epoch
// they were planned under (copies yield to the receiver's dirty-guard).
// rate > 0 throttles the copies.
func (c *Cluster) livePush(epoch uint64, rate int) migPush {
	return migPush{c: c, rate: rate, start: time.Now(),
		member: c.memberFor,
		stale:  func() bool { return c.isClosed() || c.epoch.Load() != epoch },
		deliver: func(m *memberState, ops []Op, copies bool) error {
			return m.applyLocal(ops, copies, epoch)
		},
	}
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
	for i := range p.dests {
		d := &p.dests[i]
		tgt := p.member(d.id)
		for ops := d.ops; len(ops) > 0; {
			n := min(len(ops), maxBatch)
			err := errUndialed
			if tgt != nil {
				err = p.deliver(tgt, ops[:n], true)
			}
			if err != nil {
				if p.err == nil {
					p.err = fmt.Errorf("cluster: migration copy to member %d: %w", d.id, err)
				}
				failed = append(failed, ops...)
				break
			}
			bytes := 0
			for _, op := range ops[:n] {
				bytes += len(op.Key) + len(op.Value)
			}
			p.c.migKeys.Add(uint64(n))
			p.c.migBytes.Add(uint64(bytes))
			p.report.Copied += n
			bump(&p.report.In, d.id, n)
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

// scanPage is how many entries the passes read per snapshot scan.
const scanPage = 256

// after advances cursor to the position strictly after key.
func after(cursor, key []byte) []byte {
	return append(append(cursor[:0], key...), 0)
}

// copyPass pushes every key src is the responsible pusher for to the
// owners the key gained between base and v. A non-nil error means the
// pass stopped early — the epoch moved under it, the scan failed, a
// destination is not dialed yet, or a push failed. Pushes are idempotent
// PUT copies, so a retry from the top re-covers ground safely.
func (p *migPush) copyPass(src *memberState, v, base *ClusterView) error {
	self := src.memberID()
	oldRing, newRing := base.Ring(), v.Ring()
	var cursor []byte
	var entries []engine.Entry // one page, reused; the pushes keep only the bytes
	for {
		if p.stale() {
			return ErrWrongEpoch
		}
		var err error
		entries, err = src.snapshotScan(entries[:0], cursor, scanPage)
		if err != nil {
			return fmt.Errorf("cluster: migration scan of member %d: %w", self, err)
		}
		if len(entries) == 0 {
			return nil
		}
		for i := range entries {
			e := &entries[i]
			oldOwners := oldRing.Owners(e.Key, v.R)
			if !responsiblePusher(self, v, oldOwners) {
				continue
			}
			p.report.Scanned++
			for _, id := range newRing.Owners(e.Key, v.R) {
				if !slices.Contains(oldOwners, id) { // else it already holds a settled copy
					p.add(id, Op{Kind: OpPut, Key: e.Key, Value: e.Value})
				}
			}
		}
		if len(p.flush()) > 0 {
			return p.err
		}
		cursor = after(cursor, entries[len(entries)-1].Key)
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
	ring := v.Ring()
	push := c.livePush(v.Epoch, 0)
	var requeue []string
	for len(keys) > 0 {
		page := keys[:min(len(keys), scanPage)]
		keys = keys[len(page):]
		for _, k := range page {
			key := []byte(k)
			op := Op{Kind: OpDelete, Key: key}
			if val, ok, err := node.directGet(key); err != nil {
				continue
			} else if ok {
				op = Op{Kind: OpPut, Key: key, Value: val}
			}
			for _, id := range ring.Owners(key, v.R) {
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
	row, ok := c.view.Member(c.selfID)
	if c.closed || c.view.Epoch != epoch || !ok || row.Settled >= epoch {
		c.mu.Unlock()
		return
	}
	c.settleLocked(func(id int) bool { return id == c.selfID })
	v := c.view
	cb := c.cfg.OnViewChange
	c.mu.Unlock()
	if cb != nil {
		cb(v)
	}
}

// settleLocked raises Settled to the view epoch on every row this
// process pushed for and commits the result: an elastic member's own row;
// all of them on a static coordinator, which owns the only ring and runs
// the copy pass on every member's behalf. Caller holds mu.
func (c *Cluster) settleLocked(pushed func(id int) bool) {
	v := c.view
	rows := append([]MemberInfo(nil), v.Members...)
	for i := range rows {
		if pushed(rows[i].ID) {
			rows[i].Settled = v.Epoch
		}
	}
	c.events.Record(obs.Event{
		Kind: obs.EventMigrationEnd, Epoch: v.Epoch,
		Detail: fmt.Sprintf("epoch %d settled locally: migrated copies durable", v.Epoch),
	})
	c.commitViewLocked(newView(v.Epoch, v.R, v.VNodes, rows))
}

// dropPass deletes the keys src holds but no longer owns under v. It runs
// only once the epoch has settled — every gained owner holds its copy, so
// this one is surplus.
func (p *migPush) dropPass(src *memberState, v *ClusterView) error {
	self := src.memberID()
	ring := v.Ring()
	var cursor []byte
	var entries []engine.Entry // one page, reused
	var dels []Op
	for {
		if p.stale() {
			return ErrWrongEpoch
		}
		var err error
		entries, err = src.snapshotScan(entries[:0], cursor, scanPage)
		if err != nil {
			return fmt.Errorf("cluster: migration drop scan of member %d: %w", self, err)
		}
		if len(entries) == 0 {
			return nil
		}
		dels = dels[:0]
		for i := range entries {
			if !slices.Contains(ring.Owners(entries[i].Key, v.R), self) {
				dels = append(dels, Op{Kind: OpDelete, Key: entries[i].Key})
			}
		}
		for ops := dels; len(ops) > 0; {
			n := min(len(ops), maxBatch)
			if err := p.deliver(src, ops[:n], false); err != nil {
				return fmt.Errorf("cluster: migration drop from member %d: %w", self, err)
			}
			p.c.migDropped.Add(uint64(n))
			p.report.Dropped += n
			bump(&p.report.Out, self, n)
			ops = ops[n:]
		}
		cursor = after(cursor, entries[len(entries)-1].Key)
	}
}
