package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestPutGet(t *testing.T) {
	s := Open(Options{})
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("Get(missing) reported present")
	}
	s.Put([]byte("a"), []byte("updated"))
	if v, _ := s.Get([]byte("a")); string(v) != "updated" {
		t.Fatalf("overwrite failed: %q", v)
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := Open(Options{MemtableBytes: 256}) // force flushes
	for i := 0; i < 50; i++ {
		s.Put(key(i), val(i))
	}
	s.Delete(key(7))
	if _, ok := s.Get(key(7)); ok {
		t.Fatal("deleted key still visible")
	}
	s.Flush() // tombstone now lives in a run
	if _, ok := s.Get(key(7)); ok {
		t.Fatal("deleted key visible after flush")
	}
	// Re-insert resurrects.
	s.Put(key(7), []byte("back"))
	if v, ok := s.Get(key(7)); !ok || string(v) != "back" {
		t.Fatalf("resurrection failed: %q %v", v, ok)
	}
}

func TestGetAcrossFlushes(t *testing.T) {
	s := Open(Options{MemtableBytes: 512})
	const n = 500
	for i := 0; i < n; i++ {
		s.Put(key(i), val(i))
	}
	if s.Runs() == 0 {
		t.Fatal("expected flushes with a 512-byte memtable")
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, ok)
		}
	}
}

func TestCompactionBoundsRunsAndPreservesData(t *testing.T) {
	s := Open(Options{MemtableBytes: 256, MaxRuns: 3})
	const n = 1000
	for i := 0; i < n; i++ {
		s.Put(key(i%200), val(i)) // heavy overwrites
	}
	if got := s.Runs(); got > 4 {
		t.Errorf("runs = %d, compaction should bound them near MaxRuns", got)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("expected at least one compaction")
	}
	// Newest value wins for every key.
	for k := 0; k < 200; k++ {
		want := val(k + 800) // last write of key k was iteration k+800
		v, ok := s.Get(key(k))
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%s) = %q, want %q", key(k), v, want)
		}
	}
}

func TestBlockCacheHitsAndEviction(t *testing.T) {
	s := Open(Options{MemtableBytes: 1024, BlockCacheBytes: 8 << 10})
	for i := 0; i < 800; i++ {
		s.Put(key(i), val(i))
	}
	s.Flush()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 40; i++ {
			s.Get(key(i))
		}
	}
	st := s.Stats()
	if st.BlockCacheMisses == 0 || st.BlockCacheHits == 0 {
		t.Fatalf("cache not exercised: %+v", st)
	}
	if s.cache.Len() == 0 {
		t.Fatal("no resident blocks")
	}
	// A tiny cache with a large scan working set must evict.
	small := Open(Options{MemtableBytes: 1024, BlockCacheBytes: 1024})
	for i := 0; i < 2000; i++ {
		small.Put(key(i), val(i))
	}
	small.Flush()
	small.Scan(key(0), 2000)
	if got := small.cache.Len(); got > 64 {
		t.Fatalf("tiny cache holds %d blocks, eviction broken", got)
	}
	// Disabled cache counts nothing.
	off := Open(Options{MemtableBytes: 1024, BlockCacheBytes: -1})
	off.Put(key(1), val(1))
	off.Flush()
	off.Get(key(1))
	if st := off.Stats(); st.BlockCacheHits+st.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

func TestWriteBatchGroupCommit(t *testing.T) {
	s := Open(Options{MemtableBytes: 512})
	batch := make([]BatchOp, 0, 100)
	for i := 0; i < 100; i++ {
		batch = append(batch, BatchOp{Key: key(i), Value: val(i)})
	}
	batch = append(batch, BatchOp{Key: key(7), Delete: true})
	s.WriteBatch(batch)
	for i := 0; i < 100; i++ {
		v, ok := s.Get(key(i))
		if i == 7 {
			if ok {
				t.Fatal("batched delete not applied")
			}
			continue
		}
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, ok)
		}
	}
	st := s.Stats()
	if st.Puts != 100 || st.Deletes != 1 {
		t.Fatalf("batch miscounted: %+v", st)
	}
}

func TestScanOrderedAndBounded(t *testing.T) {
	s := Open(Options{MemtableBytes: 512})
	perm := rand.New(rand.NewSource(1)).Perm(300)
	for _, i := range perm {
		s.Put(key(i), val(i))
	}
	got := s.Scan(key(100), 50)
	if len(got) != 50 {
		t.Fatalf("scan returned %d entries", len(got))
	}
	for i, e := range got {
		if !bytes.Equal(e.Key, key(100+i)) {
			t.Fatalf("scan[%d] = %s, want %s", i, e.Key, key(100+i))
		}
		if !bytes.Equal(e.Value, val(100+i)) {
			t.Fatalf("scan[%d] value mismatch", i)
		}
	}
}

// TestScanReadContract pins the zero-copy read contract for scans: rows
// from AppendScan and Snapshot.AppendScan alias stored records, so they
// must stay byte-identical after every key is overwritten and deleted
// and the store has flushed and compacted the records away. The writes
// go through one reused buffer, which also checks that Put copies on
// insert. A row's spare capacity must not be writable, or two readers
// appending to shared rows would race. The subtest is named for the
// store's compaction policy.
func TestScanReadContract(t *testing.T) {
	t.Run("size-tiered", func(t *testing.T) {
		s := Open(Options{MemtableBytes: 1024, MaxRuns: 2})
		const n = 300
		var buf []byte
		put := func(i int, v string) {
			buf = fmt.Appendf(buf[:0], "%s-%d", v, i)
			s.Put(key(i), buf)
		}
		for i := 0; i < n; i++ {
			put(i, "first")
			if i == n/2 {
				s.Flush() // the scans read runs and the memtable
			}
		}

		prefix := Entry{Key: []byte("prefix"), Value: []byte("kept")}
		live := s.AppendScan([]Entry{prefix}, nil, n)
		sn := s.Snapshot()
		snap := sn.AppendScan(nil, key(0), n)
		sn.Release()
		if len(live) != n+1 || !bytes.Equal(live[0].Key, prefix.Key) || len(snap) != n {
			t.Fatalf("scans returned %d and %d rows, want %d (+ prefix) and %d", len(live), len(snap), n, n)
		}
		for _, e := range live[1:] {
			if cap(e.Key) != len(e.Key) || cap(e.Value) != len(e.Value) {
				t.Fatalf("row %s: spare capacity exposed (key %d/%d, value %d/%d)",
					e.Key, len(e.Key), cap(e.Key), len(e.Value), cap(e.Value))
			}
		}
		check := func(when string) {
			t.Helper()
			for i := 0; i < n; i++ {
				want := fmt.Sprintf("first-%d", i)
				for _, e := range []Entry{live[i+1], snap[i]} {
					if !bytes.Equal(e.Key, key(i)) || string(e.Value) != want {
						t.Fatalf("%s: row %d = %q=%q, want %q=%q", when, i, e.Key, e.Value, key(i), want)
					}
				}
			}
		}
		check("after scan")

		compactions := s.Stats().Compactions
		for i := 0; i < n; i++ {
			put(i, "second-and-longer")
		}
		s.Flush()
		for i := 0; i < n; i++ {
			s.Delete(key(i))
		}
		s.Flush()
		for round := 0; s.Stats().Compactions == compactions; round++ {
			if round == 10 {
				t.Fatal("no compaction after overwriting and deleting every key")
			}
			put(round, "filler")
			s.Flush()
		}
		check("after overwrite, delete, flush and compaction")
	})
}

func TestScanSkipsTombstonesAndDuplicates(t *testing.T) {
	s := Open(Options{MemtableBytes: 256})
	for i := 0; i < 100; i++ {
		s.Put(key(i), val(i))
	}
	s.Flush()
	for i := 0; i < 100; i += 2 {
		s.Delete(key(i))
	}
	for i := 1; i < 100; i += 2 {
		s.Put(key(i), []byte("v2")) // newer version in memtable
	}
	got := s.Scan(key(0), 1000)
	if len(got) != 50 {
		t.Fatalf("scan returned %d entries, want 50 live odd keys", len(got))
	}
	for _, e := range got {
		if string(e.Value) != "v2" {
			t.Fatalf("scan returned stale version %q for %s", e.Value, e.Key)
		}
	}
}

func TestBloomFiltersCutNegativeProbes(t *testing.T) {
	mk := func(bloomBits int) Stats {
		s := Open(Options{MemtableBytes: 1024, BloomBitsPerKey: bloomBits})
		for i := 0; i < 500; i++ {
			s.Put(key(i), val(i))
		}
		s.Flush()
		for i := 1000; i < 1500; i++ {
			s.Get(key(i)) // all misses
		}
		return s.Stats()
	}
	with := mk(10)
	without := mk(-1)
	if with.RunsProbed >= without.RunsProbed {
		t.Errorf("bloom filters should cut run probes: with=%d without=%d",
			with.RunsProbed, without.RunsProbed)
	}
	if with.BloomNegative == 0 {
		t.Error("expected bloom negatives for missing keys")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := Open(Options{MemtableBytes: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Put(key(w*1000+i), val(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Get(key(i))
				if i%100 == 0 {
					s.Scan(key(0), 10)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Len(); got != 2000 {
		t.Fatalf("Len = %d, want 2000", got)
	}
}

// Property: the store agrees with a map reference under an arbitrary
// interleaving of puts, deletes, and overwrites.
func TestStoreMatchesMapReferenceProperty(t *testing.T) {
	f := func(ops []uint16, memLimit uint8) bool {
		s := Open(Options{MemtableBytes: int(memLimit)*8 + 64})
		ref := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("k%02d", op%64)
			switch {
			case op%11 == 0:
				s.Delete([]byte(k))
				delete(ref, k)
			default:
				v := fmt.Sprintf("v%d", op)
				s.Put([]byte(k), []byte(v))
				ref[k] = v
			}
		}
		for k, want := range ref {
			v, ok := s.Get([]byte(k))
			if !ok || string(v) != want {
				return false
			}
		}
		// Scan must return exactly the live keys in order.
		got := s.Scan([]byte("k"), 1000)
		if len(got) != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, e := range got {
			if string(e.Key) != keys[i] || string(e.Value) != ref[keys[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestInstrumentedOps(t *testing.T) {
	cpu := sim.New(sim.XeonE5645())
	s := Open(Options{MemtableBytes: 2048, CPU: cpu})
	for i := 0; i < 300; i++ {
		s.Put(key(i), val(i))
	}
	for i := 0; i < 300; i++ {
		s.Get(key(i))
	}
	s.Scan(key(0), 100)
	k := cpu.Counts()
	if k.Instructions() == 0 || k.StoreInstrs == 0 || k.LoadInstrs == 0 {
		t.Fatalf("instrumentation missing: %+v", k)
	}
	if k.FPInstrs == 0 {
		t.Error("kvstore ops should carry a small FP component (metrics math)")
	}
	if k.IntInstrs < 50*k.FPInstrs {
		t.Errorf("kvstore must stay integer-dominated: %d int vs %d FP",
			k.IntInstrs, k.FPInstrs)
	}
}

func TestMemtableSkiplistOrdering(t *testing.T) {
	m := newMemtable()
	perm := rand.New(rand.NewSource(2)).Perm(500)
	for n, i := range perm {
		m.put(key(i), val(i), false, uint64(n+1))
	}
	if m.count() != 500 {
		t.Fatalf("n = %d", m.count())
	}
	prev := []byte(nil)
	count := 0
	for node := m.head.next[0].Load(); node != nil; node = node.next[0].Load() {
		if prev != nil && bytes.Compare(prev, node.key) >= 0 {
			t.Fatal("skiplist out of order")
		}
		prev = node.key
		count++
	}
	if count != 500 {
		t.Fatalf("walked %d nodes", count)
	}
}

func TestBloomFilterFalseNegativesNever(t *testing.T) {
	f := newBloom(1000, 10)
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		k := key(i)
		keys = append(keys, k)
		f.add(k)
	}
	for _, k := range keys {
		if !f.mayContain(k) {
			t.Fatalf("false negative for %s", k)
		}
	}
	// False-positive rate should be low-ish at 10 bits/key.
	fp := 0
	for i := 5000; i < 6000; i++ {
		if f.mayContain(key(i)) {
			fp++
		}
	}
	if fp > 100 {
		t.Errorf("false positive rate %d/1000 too high", fp)
	}
}

func TestMergeRowsNewestWins(t *testing.T) {
	old := []row{{key: []byte("a"), val: []byte("old")}, {key: []byte("b"), val: []byte("old")}}
	newer := []row{{key: []byte("a"), val: []byte("new")}, {key: []byte("c"), tomb: true}}
	got := mergeRows([][]row{old, newer})
	if len(got) != 2 {
		t.Fatalf("merged = %d rows", len(got))
	}
	if string(got[0].val) != "new" || string(got[1].key) != "b" {
		t.Fatalf("merge wrong: %+v", got)
	}
}
