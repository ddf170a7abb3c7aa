package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the dissemination half of the elastic membership layer:
// how epoch-versioned views (view.go) travel between members and how
// each process folds what it hears into what it knows. The protocol is
// anti-entropy state exchange piggybacked on the health prober — every
// probe sweep a member pushes its encoded view to each peer instead of a
// bare ping, the peer merges it (MergeViews) and answers with its merged
// view when the digests disagree, and the sender merges the reply. Two
// exchanges per sweep move both sides to the same view, so an N-member
// cluster converges in O(diameter) sweeps — with every member probing
// every peer, one to two.
//
// Liveness flows through the same channel: the PR 4 failure detector's
// verdicts (consecutive probe failures → down) are published into the
// view as Suspect/Down rows each sweep, a member that stays down for
// declareDeadAfter sweeps is declared Left by the lowest-id live member,
// and a falsely accused member refutes with a higher incarnation on its
// next merge (assertSelfLocked). Epochs bump exactly when the on-ring
// member set changes, which is what arms the migrator (migrate.go).

var (
	errNotElastic = errors.New("cluster: not an elastic member")
	// errNotStatic rejects the quiesced topology mutations (AddNode,
	// RemoveNode, AddRemote) on elastic clusters — membership changes go
	// through Join/Leave there.
	errNotStatic = errors.New("cluster: elastic membership, use Join/Leave")
)

// View returns the current membership view.
func (c *Cluster) View() *ClusterView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.view
}

// ViewEpoch returns the current view epoch without taking the topology
// lock — the transport server consults it on every epoch-stamped request
// before admission.
func (c *Cluster) ViewEpoch() uint64 { return c.epoch.Load() }

// EncodedView returns the wire encoding of the current view, for
// RespView replies to stale-epoch requests and the prober's gossip
// rounds. Lock-free — it reads the encoding commitViewLocked cached —
// because the transport read loop calls it while bouncing, and blocking
// there behind a pending view-adopt writer would stall every response
// on the connection (see Cluster.encView). Callers must treat the
// returned bytes as read-only: every caller of this epoch shares them.
func (c *Cluster) EncodedView() []byte {
	if enc := c.encView.Load(); enc != nil {
		return *enc
	}
	return nil
}

// Settled reports whether every live member has finished migrating for
// the current epoch.
func (c *Cluster) Settled() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.view.AllSettled()
}

// HandleGossip is the server half of one anti-entropy exchange: merge
// the peer's encoded view into ours and answer with our (post-merge)
// encoding, or nil when the digests already agree — the "in sync" fast
// path that keeps steady-state gossip cheap.
func (c *Cluster) HandleGossip(payload []byte) ([]byte, error) {
	if !c.elastic() {
		return nil, errNotElastic
	}
	pv, err := DecodeView(payload)
	if err != nil {
		return nil, err
	}
	final := c.adopt(pv)
	if final == nil {
		return nil, ErrClosed
	}
	c.gossipRounds.Add(1)
	if final.Digest() == pv.Digest() {
		return nil, nil
	}
	return final.Encode(), nil
}

// AdoptEncodedView merges a wire-encoded view pushed from outside the
// gossip path — the RespView a server attaches to a stale-epoch error,
// handed over by the transport client's OnView hook.
func (c *Cluster) AdoptEncodedView(payload []byte) error {
	if !c.elastic() {
		return errNotElastic
	}
	pv, err := DecodeView(payload)
	if err != nil {
		return err
	}
	c.adopt(pv)
	return nil
}

// ApplyLocal lands a batch of writes, in order, on this member's own
// shard without replica fan-out — the server half of OpMirror. Replica
// mirror batches from elastic peers (migration=false) always apply; a
// chunk of migration copies must carry the epoch it was planned under,
// checked once for the frame, and is refused with ErrWrongEpoch unless
// this member holds exactly that view — an unadopted epoch means our
// dirty-guard is not armed yet and a copy could bury a racing live write
// (or be dropped on the floor); a stale epoch means the chunk is a
// leftover retry.
func (c *Cluster) ApplyLocal(ops []Op, migration bool, epoch uint64) error {
	c.mu.RLock()
	n := c.localNodeLocked()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if n == nil {
		return errNotElastic
	}
	if migration && epoch != c.epoch.Load() {
		return ErrWrongEpoch
	}
	return n.applyLocal(ops, migration)
}

// GetLocal serves a point read from this member's own shard with no
// ring routing — the server half of OpGetLocal, and the read twin of
// ApplyLocal. A peer consulting us already resolved ownership under its
// own view; re-resolving here against ours (which may disagree during a
// membership change — most acutely while we are Leaving and own nothing)
// would forward the read back out, and two members deferring to each
// other's ring is an unbounded cycle. The answer is whatever our store
// holds: a fallback read wants the bytes wherever they physically are,
// epoch notwithstanding.
func (c *Cluster) GetLocal(key []byte) ([]byte, bool, error) {
	c.mu.RLock()
	n := c.localNodeLocked()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	if n == nil {
		return nil, false, errNotElastic
	}
	return n.directGet(key)
}

// adopt merges pv into the current view, re-asserts our own liveness
// against whatever the merge says about us, and commits the result if it
// changed anything. Returns the post-merge view (nil if closed). Side
// effects — dialing newly learned members, the OnViewChange callback —
// run outside the lock.
func (c *Cluster) adopt(pv *ClusterView) *ClusterView {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	merged := MergeViews(c.view, pv)
	merged = c.assertSelfLocked(merged)
	changed := merged.Digest() != c.view.Digest()
	if changed {
		c.commitViewLocked(merged)
	}
	final := c.view
	cb := c.cfg.OnViewChange
	c.mu.Unlock()
	if changed {
		c.ensureMembers()
		if cb != nil {
			cb(final)
		}
	}
	return final
}

// assertSelfLocked guards our own row through a merge: peers may have
// marked us Suspect/Down (a partition, a slow sweep) or even Left (we
// were declared dead and are now rejoining). We are the one member that
// knows we are alive, so we refute with a higher incarnation — or keep
// publishing Leaving while a graceful departure drains. Caller holds mu.
func (c *Cluster) assertSelfLocked(v *ClusterView) *ClusterView {
	if c.selfID < 0 {
		return v
	}
	want := StatusAlive
	if c.leaving.Load() {
		want = StatusLeaving
	}
	row, ok := v.Member(c.selfID)
	if ok {
		if row.Incarnation > c.selfInc {
			c.selfInc = row.Incarnation
		}
		if row.Status == want || (want == StatusLeaving && row.Status == StatusLeft) {
			return v
		}
	} else {
		row = MemberInfo{ID: c.selfID, Settled: 0}
	}
	c.selfInc++
	row.Addr = c.cfg.SelfAddr
	row.Status = want
	row.Incarnation = c.selfInc
	return v.withRow(row)
}

// commitViewLocked installs v as the current view: the ring swaps with
// it (one atomic ownership map per epoch), replication parameters follow
// the winning view, and the migrator is armed or disarmed depending on
// whether the epoch still has data movement in flight. Caller holds mu.
func (c *Cluster) commitViewLocked(v *ClusterView) {
	prev := c.view
	c.view = v
	c.ring = v.Ring()
	c.epoch.Store(v.Epoch)
	enc := v.Encode()
	c.encView.Store(&enc)
	// Restamp every connected elastic peer with the new epoch so routed
	// member-to-member traffic stays fenced. Writes planned under the old
	// ring that are already on the wire bounce at the peer (ErrWrongEpoch)
	// rather than being re-forwarded by a ring that disagrees with ours —
	// unfenced forwards cycle between members mid-transition until both
	// sides' admission tokens drain. SetEpoch is one atomic store, safe
	// under c.mu.
	for _, ms := range c.nodes {
		if rm, ok := ms.member.(*remoteMember); ok && rm.localMirror {
			rm.setEpoch(v.Epoch)
		}
	}
	if v.R > 0 {
		c.cfg.Replication = v.R
	}
	if prev == nil || v.Epoch != prev.Epoch {
		c.viewChanges.Add(1)
		// Record is lock-cheap and never calls out, so it is safe here
		// under c.mu.
		c.events.Record(obs.Event{
			Kind: obs.EventViewCommit, Epoch: v.Epoch,
			Detail: fmt.Sprintf("view committed: %d members, settled=%v", len(v.Members), v.AllSettled()),
		})
	}
	if v.AllSettled() {
		c.lastSettled = v
		if n := c.localNodeLocked(); n != nil {
			// Migration for this epoch is complete cluster-wide: live
			// writes no longer race copies, so the dirty-guard comes off
			// the write path.
			n.guard.Store(nil)
		}
		return
	}
	if n := c.localNodeLocked(); n != nil {
		// An epoch with data movement in flight: arm a fresh dirty-guard
		// so live writes shadow stale migration copies (a copy never
		// overwrites a key written after the epoch began — the write
		// already routed under the new ownership map). Each epoch gets
		// its own guard; marks from an older epoch must not suppress this
		// epoch's copies.
		if g := n.guard.Load(); g == nil || g.epoch != v.Epoch {
			n.guard.Store(newMigrationGuard(v.Epoch))
		}
		c.startMigratorLocked()
		select {
		case c.migKick <- struct{}{}:
		default:
		}
	}
}

// ensureMembers dials view members this process has not connected yet.
// Dials run outside all locks (a slow peer must not stall gossip); a
// failed dial retries on the next probe sweep. Each member is dialed by
// at most one sweep at a time: concurrent sweeps (the probe ticker
// racing an adopt) would otherwise both connect, and the discarded
// duplicate confuses Dial-side trackers that treat the latest dial for
// an address as the canonical connection.
func (c *Cluster) ensureMembers() {
	if c.cfg.Dial == nil {
		return
	}
	c.mu.Lock()
	var want []MemberInfo
	if !c.closed {
		if c.dialing == nil {
			c.dialing = make(map[int]struct{})
		}
		for _, m := range c.view.Members {
			if m.ID == c.selfID || m.Addr == "" || m.Status == StatusLeft {
				continue
			}
			if _, busy := c.dialing[m.ID]; busy || c.nodes[m.ID] != nil {
				continue
			}
			c.dialing[m.ID] = struct{}{}
			want = append(want, m)
		}
	}
	c.mu.Unlock()
	for _, m := range want {
		r, err := c.cfg.Dial(m.Addr)
		if err == nil {
			c.addViewMember(m, r)
		}
		c.mu.Lock()
		delete(c.dialing, m.ID)
		c.mu.Unlock()
	}
}

// addViewMember registers a freshly dialed peer under its view id. The
// ring already contains the id (it came from the view), so this only
// fills the member map.
func (c *Cluster) addViewMember(m MemberInfo, r Remote) {
	ms := c.wrapRemote(m.ID, r, true, m.Addr)
	c.mu.Lock()
	if c.closed || c.nodes[m.ID] != nil {
		c.mu.Unlock()
		r.Close()
		return
	}
	c.nodes[m.ID] = ms
	c.mu.Unlock()
}

// Join performs the initial anti-entropy exchange against each seed: the
// seed learns our row (bumping the epoch — we are a new on-ring member),
// we adopt the merged cluster view it answers with, and ensureMembers
// dials everyone it revealed. Migration of our newly owned keyranges
// then proceeds in the background; until our copy lands, reads fall back
// to the last settled owners. Returns nil once any seed exchanged views.
func (c *Cluster) Join(seeds ...string) error {
	if !c.elastic() {
		return errNotElastic
	}
	if c.cfg.Dial == nil {
		return errors.New("cluster: Join requires Config.Dial")
	}
	var lastErr error
	joined := false
	for _, addr := range seeds {
		if addr == "" || addr == c.cfg.SelfAddr {
			continue
		}
		// A seed an earlier exchange already revealed (and ensureMembers
		// dialed) gossips over its member connection — dialing a second,
		// throwaway connection to the same address would strand Dial-side
		// trackers on whichever one they saw last.
		c.mu.RLock()
		ms := c.nodes[MemberIDForAddr(addr)]
		c.mu.RUnlock()
		if ms != nil && ms.canGossip() {
			reply, err := ms.gossip(c.EncodedView())
			if err != nil {
				lastErr = err
				continue
			}
			if len(reply) > 0 {
				if pv, derr := DecodeView(reply); derr == nil {
					c.adopt(pv)
				} else {
					lastErr = derr
					continue
				}
			}
			joined = true
			continue
		}
		r, err := c.cfg.Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		gr, ok := r.(gossipRemote)
		if !ok {
			r.Close()
			lastErr = errors.New("cluster: seed transport does not gossip")
			continue
		}
		reply, err := gr.Gossip(c.EncodedView())
		if err != nil {
			r.Close()
			lastErr = err
			continue
		}
		if len(reply) > 0 {
			if pv, derr := DecodeView(reply); derr == nil {
				c.adopt(pv)
			} else {
				lastErr = derr
			}
		}
		r.Close() // ensureMembers dials the canonical per-member connection
		joined = true
	}
	c.ensureMembers()
	if joined {
		return nil
	}
	return lastErr
}

// Leave departs gracefully: publish Leaving (off the ring, but still in
// the settle barrier — our data must finish pushing before the epoch
// settles), wait for our own migration to drain, publish Left, and
// gossip the farewell so the cluster does not wait out a suspicion
// timeout. Best-effort: the deadline bounds the drain wait, and a
// crashed leaver is healed by the declare-dead path anyway.
func (c *Cluster) Leave(timeout time.Duration) error {
	if c.selfID < 0 {
		return errNotElastic
	}
	c.leaving.Store(true)
	c.publishSelf(StatusLeaving)
	c.gossipNow()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.RLock()
		row, ok := c.view.Member(c.selfID)
		epoch := c.view.Epoch
		alone := c.ring.Size() == 0 // nobody left to push to
		c.mu.RUnlock()
		if !ok || row.Settled >= epoch || row.Status == StatusLeft || alone {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		select {
		case c.migKick <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.publishSelf(StatusLeft)
	c.gossipNow()
	return nil
}

// publishSelf commits a new row for this member at the next incarnation
// and fires the view-change side effects.
func (c *Cluster) publishSelf(status MemberStatus) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	row, ok := c.view.Member(c.selfID)
	if !ok {
		row = MemberInfo{ID: c.selfID}
	}
	if row.Incarnation > c.selfInc {
		c.selfInc = row.Incarnation
	}
	c.selfInc++
	row.Addr = c.cfg.SelfAddr
	row.Status = status
	row.Incarnation = c.selfInc
	c.commitViewLocked(c.view.withRow(row))
	v := c.view
	cb := c.cfg.OnViewChange
	c.mu.Unlock()
	if cb != nil {
		cb(v)
	}
}

// gossipNow pushes the current view to every connected peer immediately
// (join, leave, and settle transitions should not wait for the next
// probe sweep) and folds in whatever they answer.
func (c *Cluster) gossipNow() {
	c.mu.RLock()
	peers := make([]*memberState, 0, len(c.nodes))
	for id, m := range c.nodes {
		if id != c.selfID {
			peers = append(peers, m)
		}
	}
	c.mu.RUnlock()
	for _, m := range peers {
		reply, err := m.gossip(c.EncodedView())
		if err != nil || len(reply) == 0 {
			continue
		}
		if pv, derr := DecodeView(reply); derr == nil {
			c.adopt(pv)
		}
	}
}

// publishHealth folds the failure detector's verdicts into the view
// after a probe sweep: reachable members are (re)published Alive,
// failing ones Suspect, down ones Down — and a member down (or a leaver
// silent) for declareDeadAfter consecutive sweeps is declared Left by
// the lowest-id live member, healing the ring around the loss. members
// is the sweep's snapshot.
func (c *Cluster) publishHealth(members []*memberState) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	v := c.view
	nv := v
	for _, m := range members {
		id := m.memberID()
		if id == c.selfID {
			continue
		}
		row, ok := nv.Member(id)
		if !ok || row.Status == StatusLeft {
			continue
		}
		if m.isDown() {
			m.downSweeps++
		} else {
			m.downSweeps = 0
		}
		if m.downSweeps >= declareDeadAfter && c.lowestLiveLocked(nv) == c.selfID {
			row.Status = StatusLeft
			row.Incarnation++
			nv = nv.withRow(row)
			c.events.Record(obs.Event{
				Kind: obs.EventMemberDead, Member: row.Addr, Epoch: nv.Epoch,
				Detail: fmt.Sprintf("declared dead after %d down sweeps; ring heals around the loss", m.downSweeps),
			})
			continue
		}
		if row.Status == StatusLeaving {
			continue // the leaver owns its own lifecycle until declared dead
		}
		want := StatusAlive
		if m.isDown() {
			want = StatusDown
		} else if m.failing() {
			want = StatusSuspect
		}
		if want != row.Status {
			kind := obs.EventMemberAlive
			switch want {
			case StatusDown:
				kind = obs.EventMemberDown
			case StatusSuspect:
				kind = obs.EventMemberSuspect
			}
			c.events.Record(obs.Event{Kind: kind, Member: row.Addr, Epoch: nv.Epoch})
			row.Status = want
			row.Incarnation++
			nv = nv.withRow(row)
		}
	}
	changed := nv.Digest() != v.Digest()
	if changed {
		c.commitViewLocked(nv)
	}
	final := c.view
	cb := c.cfg.OnViewChange
	c.mu.Unlock()
	if changed {
		c.ensureMembers()
		if cb != nil {
			cb(final)
		}
	}
}

// lowestLiveLocked returns the lowest member id whose row is Alive —
// the deterministic tie-break for who declares a dead member Left, so a
// heal is published once instead of N times. Caller holds mu.
func (c *Cluster) lowestLiveLocked(v *ClusterView) int {
	low := -1
	for _, m := range v.Members {
		if m.Status != StatusAlive {
			continue
		}
		if low == -1 || m.ID < low {
			low = m.ID
		}
	}
	return low
}
