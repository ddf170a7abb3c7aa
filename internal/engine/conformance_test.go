package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// confConfigs are the engine configurations every conformance property
// must agree across: the default run bound and a MaxRuns of 2 (which
// compacts on every third flush), cache on and off. The memtable is small
// enough that the op sequences below flush and compact continuously.
func confConfigs() []Options {
	return []Options{
		{MemtableBytes: 1 << 10},
		{MemtableBytes: 1 << 10, BlockCacheBytes: -1},
		{MemtableBytes: 1 << 10, MaxRuns: 2},
		{MemtableBytes: 1 << 10, MaxRuns: 2, BlockCacheBytes: -1},
	}
}

func confName(o Options) string {
	runs := "size-tiered"
	if o.MaxRuns > 0 {
		runs = fmt.Sprintf("size-tiered-maxruns%d", o.MaxRuns)
	}
	cache := "cache"
	if o.BlockCacheBytes < 0 {
		cache = "nocache"
	}
	return runs + "/" + cache
}

// TestConformanceRandomizedOps drives an identical randomized op
// sequence (puts, overwrites, deletes, batches) through every
// configuration and a map reference, then requires identical Get results
// for every touched key and identical Scan results from random starts.
func TestConformanceRandomizedOps(t *testing.T) {
	const (
		keySpace = 400
		ops      = 6000
	)
	type step struct {
		kind int // 0 put, 1 delete, 2 batch of puts
		k    int
		v    int
		n    int
	}
	rng := rand.New(rand.NewSource(7))
	steps := make([]step, ops)
	for i := range steps {
		steps[i] = step{kind: rng.Intn(10) % 3, k: rng.Intn(keySpace), v: i, n: 1 + rng.Intn(8)}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("conf-%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

	ref := map[string]string{}
	apply := func(e Engine, withRef bool) {
		for _, st := range steps {
			switch st.kind {
			case 1:
				e.Delete(key(st.k))
				if withRef {
					delete(ref, string(key(st.k)))
				}
			case 2:
				batch := make([]BatchOp, 0, st.n)
				for j := 0; j < st.n; j++ {
					k := (st.k + j*17) % keySpace
					batch = append(batch, BatchOp{Key: key(k), Value: val(st.v + j)})
					if withRef {
						ref[string(key(k))] = string(val(st.v + j))
					}
				}
				e.WriteBatch(batch)
			default:
				e.Put(key(st.k), val(st.v))
				if withRef {
					ref[string(key(st.k))] = string(val(st.v))
				}
			}
		}
	}

	var engines []Engine
	for i, o := range confConfigs() {
		e, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		apply(e, i == 0)
		engines = append(engines, e)
	}

	for i, e := range engines {
		name := confName(confConfigs()[i])
		st := e.Stats()
		if st.Flushes == 0 || st.Compactions == 0 {
			t.Fatalf("%s: sequence did not exercise flush/compaction: %+v", name, st)
		}
		for k := 0; k < keySpace; k++ {
			got, ok := e.Get(key(k))
			want, live := ref[string(key(k))]
			if ok != live || (live && string(got) != want) {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q, %v", name, key(k), got, ok, want, live)
			}
		}
	}

	// Scans: every engine returns the reference's live keys in order.
	var liveKeys []string
	for k := range ref {
		liveKeys = append(liveKeys, k)
	}
	sort.Strings(liveKeys)
	scanRng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		start := key(scanRng.Intn(keySpace))
		limit := 1 + scanRng.Intn(80)
		from := sort.SearchStrings(liveKeys, string(start))
		want := liveKeys[from:min(from+limit, len(liveKeys))]
		for i, e := range engines {
			got := e.Scan(start, limit)
			if len(got) != len(want) {
				t.Fatalf("%s: Scan(%s,%d) len = %d, want %d",
					confName(confConfigs()[i]), start, limit, len(got), len(want))
			}
			for j, entry := range got {
				if string(entry.Key) != want[j] || string(entry.Value) != ref[want[j]] {
					t.Fatalf("%s: Scan(%s,%d)[%d] = %s=%s, want %s=%s",
						confName(confConfigs()[i]), start, limit, j,
						entry.Key, entry.Value, want[j], ref[want[j]])
				}
			}
		}
	}
}

// TestConformanceSnapshotIsolation verifies that a snapshot taken
// mid-stream resolves exactly the writes sequenced before it, across
// every configuration and through later flushes and compactions.
func TestConformanceSnapshotIsolation(t *testing.T) {
	for _, o := range confConfigs() {
		o := o
		t.Run(confName(o), func(t *testing.T) {
			e, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			key := func(i int) []byte { return []byte(fmt.Sprintf("snap-%05d", i)) }
			const n = 300
			for i := 0; i < n; i++ {
				e.Put(key(i), []byte("v1"))
			}
			e.Delete(key(5))
			sn := e.Snapshot()
			defer sn.Release()
			// Churn after the snapshot: overwrites, deletes, new keys —
			// enough volume to force flushes and compactions underneath.
			for round := 0; round < 4; round++ {
				for i := 0; i < n; i++ {
					e.Put(key(i), []byte(fmt.Sprintf("v2-%d", round)))
				}
			}
			for i := 0; i < n; i += 3 {
				e.Delete(key(i))
			}
			for i := n; i < 2*n; i++ {
				e.Put(key(i), []byte("late"))
			}

			if _, ok := sn.Get(key(5)); ok {
				t.Fatal("snapshot resurrected a pre-snapshot delete")
			}
			for i := 0; i < n; i++ {
				if i == 5 {
					continue
				}
				v, ok := sn.Get(key(i))
				if !ok || !bytes.Equal(v, []byte("v1")) {
					t.Fatalf("snapshot Get(%s) = %q, %v; want v1", key(i), v, ok)
				}
			}
			got := sn.Scan(key(0), 10*n)
			if len(got) != n-1 {
				t.Fatalf("snapshot scan len = %d, want %d", len(got), n-1)
			}
			for _, entry := range got {
				if !bytes.Equal(entry.Value, []byte("v1")) {
					t.Fatalf("snapshot scan leaked post-snapshot value %q for %s",
						entry.Value, entry.Key)
				}
			}
			// The live view moved on.
			if v, ok := e.Get(key(1)); !ok || bytes.Equal(v, []byte("v1")) {
				t.Fatalf("live Get(%s) = %q, %v; want a post-snapshot value", key(1), v, ok)
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
