package cluster

import (
	"errors"
	"fmt"
)

// MoveReport accounts for one membership change's data movement. With a
// consistent ring, Copied stays near Scanned·changed/N instead of the
// full reshuffle a modulo-hash layout would force.
type MoveReport struct {
	// Scanned is the number of distinct live keys examined.
	Scanned int
	// Copied is the number of key copies written to new owners.
	Copied int
	// Dropped is the number of key copies deleted from former owners.
	Dropped int
	// In and Out are per-node copy counts (received / relinquished); a
	// map nobody counted into stays nil.
	In, Out map[int]int
}

func (m MoveReport) String() string {
	return fmt.Sprintf("scanned %d keys, copied %d, dropped %d", m.Scanned, m.Copied, m.Dropped)
}

// bump adds n to a per-node count, making the map on first use.
func bump(counts *map[int]int, id, n int) {
	if *counts == nil {
		*counts = map[int]int{}
	}
	(*counts)[id] += n
}

// AddNode grows the cluster by one shard, migrating exactly the entries
// whose owner set changed. It returns the new node's id. The topology
// lock quiesces traffic for the duration. A non-nil error with a valid
// id reports an incomplete migration (only possible with remote members
// — see rebalanceLocked).
func (c *Cluster) AddNode() (int, MoveReport, error) {
	return c.join(func(id int) { c.addLocalLocked(id, "") })
}

// join is the body AddNode and AddRemote share: assign the next ring id,
// let build register the member under it, and rebalance onto the view
// that gains its row.
func (c *Cluster) join(build func(id int)) (int, MoveReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.staticLocked(); err != nil {
		return -1, MoveReport{}, err
	}
	id := c.nextID
	c.nextID++
	build(id)
	report, err := c.rebalanceLocked(c.view.withRow(MemberInfo{ID: id, Incarnation: 1}))
	return id, report, err
}

// staticLocked admits a quiesced membership change: the cluster is open
// and not an elastic member (those change membership through Join/Leave).
func (c *Cluster) staticLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.elastic() {
		return errNotStatic
	}
	return nil
}

// RemoveNode drains a shard's ownership onto the surviving members and
// shuts the node down. The last node cannot be removed. The departure
// takes the elastic Leave's two steps: the row turns Leaving — off the
// ring, still a source the copy pass drains — and Left once the drain
// settled. After an error the member stays Leaving, alive and holding
// whatever did not move; calling RemoveNode again resumes the drain.
func (c *Cluster) RemoveNode(id int) (MoveReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.staticLocked(); err != nil {
		return MoveReport{}, err
	}
	m, ok := c.nodes[id]
	if !ok {
		return MoveReport{}, errors.New("cluster: no such node")
	}
	row, _ := c.view.Member(id)
	if row.Status.onRing() && c.ring.Size() == 1 {
		return MoveReport{}, errors.New("cluster: cannot remove the last node")
	}
	row.Status = StatusLeaving
	report, err := c.rebalanceLocked(c.view.withRow(row))
	if err != nil {
		return report, err
	}
	row.Status = StatusLeft
	c.commitViewLocked(c.view.withRow(row))
	delete(c.nodes, id)
	m.close()
	return report, nil
}

// rebalanceLocked is the static driver of the passes in migrate.go:
// commit next, run the copy pass for every member of the last settled
// ring (the coordinator owns the only ring, so it pushes on behalf of
// every member, local or remote), commit the settled view, then run the
// drop pass. Caller holds mu for the whole change, and everything the
// driver hands the passes follows from that: member lookups read c.nodes
// (memberFor would re-enter mu), nothing can go stale under the lock, and
// chunks land unthrottled through the member's plain store-level batch
// write — with traffic quiesced no dirty-guard is armed to consult.
//
// With remote members a scan, copy or drop RPC can fail; the first
// failure stops the change and is returned with the partial report. A
// failed copy leaves the view unsettled: nothing has been dropped, reads
// and scans keep consulting the last settled owners (as they do while an
// elastic epoch is in flight), and the next membership change — or a
// RemoveNode retry — plans from that same last settled layout again.
// Writes are refused meanwhile (ErrUnsettled): the lock that kept them
// off the moving keyranges is released, and no guard stands in for it.
// Local-only clusters never return an error.
func (c *Cluster) rebalanceLocked(next *ClusterView) (MoveReport, error) {
	resumed := !c.view.AllSettled() // an earlier change stopped half way
	c.commitViewLocked(next)
	v, base := c.view, c.lastSettled
	push := migPush{c: c,
		member:  func(id int) *memberState { return c.nodes[id] },
		stale:   func() bool { return false },
		deliver: func(m *memberState, ops []Op, _ bool) error { return m.storeBatch(ops) },
	}
	c.noteMigrationStart(v.Epoch)
	for _, id := range base.Ring().Members() {
		if err := push.copyPass(c.nodes[id], v, base); err != nil {
			return push.report, err
		}
	}
	c.settleLocked(func(int) bool { return true })
	drops := ringUnion(v, base)
	if push.report.Copied == 0 && !resumed {
		// One member joined or left a settled layout and no key gained an
		// owner, so no member of the new ring lost one (joining empty
		// stores, the usual case): only a leaver, listed after them, still
		// holds anything to drop.
		drops = drops[v.Ring().Size():]
	}
	for _, id := range drops {
		if err := push.dropPass(c.nodes[id], v); err != nil {
			return push.report, err
		}
	}
	return push.report, nil
}
