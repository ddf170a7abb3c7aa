package cluster

import (
	"slices"
	"testing"

	"repro/internal/engine"
)

// assertPlacement is the end-state oracle both drivers of the migration
// passes are held to — the static one (AddNode/RemoveNode/AddRemote under
// the topology lock) and the elastic one (the background migrator).
// stores is each member's own store, scanned in full; ring and r are the
// final layout. Every key must sit on exactly its Owners under that ring
// and on no other member — so the copy pass reached every gained owner,
// the drop pass cleared every former one, and a scatter-gather scan sees
// one logical copy per key. It returns the number of distinct keys.
func assertPlacement(t testing.TB, stores map[int][]engine.Entry, ring *Ring, r int) int {
	t.Helper()
	holders := map[string][]int{}
	for id, entries := range stores {
		for _, e := range entries {
			holders[string(e.Key)] = append(holders[string(e.Key)], id)
		}
	}
	for key, held := range holders {
		owners := ring.Owners([]byte(key), r)
		if len(held) != len(owners) {
			t.Fatalf("key %q is on members %v, want exactly its owners %v", key, held, owners)
		}
		for _, id := range held {
			if !slices.Contains(owners, id) {
				t.Fatalf("key %q is on member %d, which is not among its owners %v", key, id, owners)
			}
		}
	}
	return len(holders)
}

// memberStores scans every member's own store in full, for assertPlacement.
func memberStores(t testing.TB, c *Cluster) map[int][]engine.Entry {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	stores := make(map[int][]engine.Entry, len(c.nodes))
	for id, m := range c.nodes {
		entries, err := m.snapshotScan(nil, nil, 1<<20)
		if err != nil {
			t.Fatalf("scan of member %d: %v", id, err)
		}
		stores[id] = entries
	}
	return stores
}

// The external test package (elastic_test.go) drives the same oracle.
var AssertPlacement = assertPlacement

// DropsDone reports whether this elastic member's drop pass has run for
// the current epoch — the point past which assertPlacement may demand
// that no former owner still holds a copy.
func (c *Cluster) DropsDone() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dropsDone >= c.view.Epoch
}
