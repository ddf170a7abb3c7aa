package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	return keys
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a, b := NewRing(64), NewRing(64)
	for id := 0; id < 4; id++ {
		a.Add(id)
		b.Add(id)
	}
	for _, k := range ringKeys(500) {
		if a.Primary(k) != b.Primary(k) {
			t.Fatalf("rings disagree on %q", k)
		}
		if p := a.Primary(k); p < 0 || p > 3 {
			t.Fatalf("primary(%q) = %d", k, p)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	const nodes = 8
	for id := 0; id < nodes; id++ {
		r.Add(id)
	}
	counts := map[int]int{}
	keys := ringKeys(20000)
	for _, k := range keys {
		counts[r.Primary(k)]++
	}
	want := len(keys) / nodes
	for id := 0; id < nodes; id++ {
		if counts[id] < want/2 || counts[id] > want*2 {
			t.Fatalf("node %d owns %d keys, want within [%d, %d]", id, counts[id], want/2, want*2)
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(32)
	for id := 0; id < 5; id++ {
		r.Add(id)
	}
	for _, k := range ringKeys(300) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("owners(%q) = %v", k, owners)
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner in %v for %q", owners, k)
			}
			seen[o] = true
		}
	}
	// Requesting more owners than members clamps.
	if got := len(r.Owners([]byte("x"), 10)); got != 5 {
		t.Fatalf("clamped owners = %d, want 5", got)
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing(64)
	for id := 0; id < 4; id++ {
		r.Add(id)
	}
	keys := ringKeys(10000)
	before := make([]int, len(keys))
	for i, k := range keys {
		before[i] = r.Primary(k)
	}
	r.Add(4)
	moved := 0
	for i, k := range keys {
		after := r.Primary(k)
		if after != before[i] {
			if after != 4 {
				t.Fatalf("key %q moved %d→%d, not to the new node", k, before[i], after)
			}
			moved++
		}
	}
	// Consistent hashing moves ≈ K/N keys; allow a generous band.
	if moved < len(keys)/10 || moved > len(keys)/2 {
		t.Fatalf("moved %d of %d keys on add, want ≈ %d", moved, len(keys), len(keys)/5)
	}
	// Vnode placement is a function of the member id alone: a ring built
	// without the node reproduces the exact prior assignment, which is what
	// lets a view that retires a member's row undo the join.
	without := NewRing(64)
	for n := 0; n < 4; n++ {
		without.Add(n)
	}
	for i, k := range keys {
		if without.Primary(k) != before[i] {
			t.Fatalf("key %q not back on node %d once node 4 is gone", k, before[i])
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(16)
	if r.Primary([]byte("k")) != -1 {
		t.Fatal("empty ring must return -1")
	}
	if r.Owners([]byte("k"), 2) != nil {
		t.Fatal("empty ring must return no owners")
	}
}
