package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
)

// The cluster runtime (internal/cluster) drives one Store from many
// goroutines at once: shard workers, replica writes arriving from other
// nodes' workers, and scatter-gather scans. These tests pin the safety
// properties that traffic relies on, with a memtable small enough that
// flushes and compactions run continuously underneath.

// TestConcurrentMixedWorkloadIntegrity runs writers, overwriters,
// deleters, readers and scanners against one store and checks that every
// observed value is well-formed and every surviving key holds its final
// version afterwards.
func TestConcurrentMixedWorkloadIntegrity(t *testing.T) {
	s := Open(Options{MemtableBytes: 2048, CPU: sim.New(sim.XeonE5645())})
	const (
		writers = 4
		keysPer = 300
		rounds  = 3
	)
	ckey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-key%05d", w, i)) }
	cval := func(w, i, round int) []byte { return []byte(fmt.Sprintf("w%d-key%05d@v%d", w, i, round)) }

	var wg sync.WaitGroup
	// Writers overwrite their own disjoint ranges round by round.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 1; round <= rounds; round++ {
				for i := 0; i < keysPer; i++ {
					s.Put(ckey(w, i), cval(w, i, round))
				}
			}
		}(w)
	}
	// A deleter churns a separate range with delete/re-put cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			for i := 0; i < keysPer; i++ {
				k := []byte(fmt.Sprintf("churn-%05d", i))
				s.Put(k, []byte("live"))
				s.Delete(k)
			}
		}
	}()
	// Readers verify that any value they observe belongs to its key.
	readErr := make(chan error, writers)
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			for n := 0; n < 1500; n++ {
				w, i := rng.Intn(writers), rng.Intn(keysPer)
				if v, ok := s.Get(ckey(w, i)); ok {
					if !bytes.HasPrefix(v, ckey(w, i)) {
						readErr <- fmt.Errorf("key %s returned foreign value %q", ckey(w, i), v)
						return
					}
				}
			}
		}(r)
	}
	// Scanners verify results stay strictly ordered mid-compaction.
	scanErr := make(chan error, 2)
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				start := []byte(fmt.Sprintf("w%d", sc))
				got := s.Scan(start, 50)
				for j := 1; j < len(got); j++ {
					if bytes.Compare(got[j-1].Key, got[j].Key) >= 0 {
						scanErr <- fmt.Errorf("scan out of order at %q >= %q", got[j-1].Key, got[j].Key)
						return
					}
				}
			}
		}(sc)
	}
	wg.Wait()
	close(readErr)
	close(scanErr)
	for err := range readErr {
		t.Fatal(err)
	}
	for err := range scanErr {
		t.Fatal(err)
	}
	// Quiesced: every written key holds its final round's value.
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPer; i++ {
			v, ok := s.Get(ckey(w, i))
			if !ok || !bytes.Equal(v, cval(w, i, rounds)) {
				t.Fatalf("key %s = %q, %v; want final version", ckey(w, i), v, ok)
			}
		}
	}
	if st := s.Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("test did not exercise flush/compaction: %+v", st)
	}
}

// TestConcurrentReadsNeverObserveTornRunSet pins the version-swap
// guarantee: while a writer drives continuous flushes and compactions,
// concurrent Gets of a stable key set must never miss, and concurrent
// Scans must always see the complete, ordered stable range — a reader
// that caught a half-installed run set would fail both. The subtest is
// named for the store's compaction policy.
func TestConcurrentReadsNeverObserveTornRunSet(t *testing.T) {
	t.Run("size-tiered", func(t *testing.T) {
		s := Open(Options{MemtableBytes: 2048, MaxRuns: 2})
		const stable = 200
		skey := func(i int) []byte { return []byte(fmt.Sprintf("stable-%05d", i)) }
		for i := 0; i < stable; i++ {
			s.Put(skey(i), []byte(fmt.Sprintf("sv-%05d", i)))
		}
		s.Flush()

		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			// Churn keys sort before the stable range, so stable
			// scans cross run boundaries the churn keeps rewriting.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("churn-%05d", i%300))
				s.Put(k, bytes.Repeat([]byte("w"), 40))
				if i%7 == 0 {
					s.Delete(k)
				}
			}
		}()

		var readers sync.WaitGroup
		errc := make(chan error, 8)
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for n := 0; n < 3000; n++ {
					i := rng.Intn(stable)
					v, ok := s.Get(skey(i))
					if !ok {
						errc <- fmt.Errorf("stable key %s vanished mid-compaction", skey(i))
						return
					}
					if want := fmt.Sprintf("sv-%05d", i); string(v) != want {
						errc <- fmt.Errorf("stable key %s = %q, want %q", skey(i), v, want)
						return
					}
				}
			}(r)
		}
		for sc := 0; sc < 2; sc++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for n := 0; n < 150; n++ {
					got := s.Scan([]byte("stable-"), stable)
					if len(got) != stable {
						errc <- fmt.Errorf("scan saw %d/%d stable keys", len(got), stable)
						return
					}
					for i, e := range got {
						if !bytes.Equal(e.Key, skey(i)) {
							errc <- fmt.Errorf("scan[%d] = %q, want %q", i, e.Key, skey(i))
							return
						}
					}
				}
			}()
		}
		readers.Wait()
		close(stop)
		writer.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Flushes == 0 || st.Compactions == 0 {
			t.Fatalf("churn did not exercise flush/compaction: %+v", st)
		}
	})
}

// TestWriteBatchAtomicVisibility pins the visibility-horizon guarantee:
// a lock-free reader sees all of a WriteBatch or none of it. A writer
// rewrites the same key range batch by batch, each batch carrying one
// round tag; concurrent scans must only ever observe a single tag.
func TestWriteBatchAtomicVisibility(t *testing.T) {
	s := Open(Options{MemtableBytes: 2048})
	const span = 50
	key := func(i int) []byte { return []byte(fmt.Sprintf("batch-%03d", i)) }
	mk := func(round int) []BatchOp {
		ops := make([]BatchOp, span)
		for i := range ops {
			ops[i] = BatchOp{Key: key(i), Value: []byte(fmt.Sprintf("round-%04d", round))}
		}
		return ops
	}
	s.WriteBatch(mk(0))

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			s.WriteBatch(mk(round))
		}
	}()
	var readers sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 400; n++ {
				got := s.Scan([]byte("batch-"), span)
				if len(got) != span {
					errc <- fmt.Errorf("scan saw %d/%d batch keys", len(got), span)
					return
				}
				for _, e := range got[1:] {
					if !bytes.Equal(e.Value, got[0].Value) {
						errc <- fmt.Errorf("torn batch: %s=%q but %s=%q",
							got[0].Key, got[0].Value, e.Key, e.Value)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestWALAccounting pins the WAL byte accounting: every write appends
// exactly len(key)+len(value)+12 record bytes (tombstones carry no
// value), across Put, Delete, WriteBatch, and concurrent writers.
func TestWALAccounting(t *testing.T) {
	s := Open(Options{MemtableBytes: 1 << 30}) // no flushes; isolate the WAL
	var want uint64
	for i := 0; i < 100; i++ {
		k, v := key(i), val(i)
		s.Put(k, v)
		want += uint64(len(k) + len(v) + 12)
	}
	for i := 0; i < 20; i++ {
		k := key(i)
		s.Delete(k)
		want += uint64(len(k) + 12)
	}
	batch := []BatchOp{
		{Key: []byte("b1"), Value: []byte("v1")},
		{Key: []byte("b2"), Delete: true},
	}
	s.WriteBatch(batch)
	want += uint64(2+2+12) + uint64(2+12)
	if got := s.Stats().WALBytes; got != want {
		t.Fatalf("WALBytes = %d, want %d", got, want)
	}

	// Concurrent writers: the total stays exact and a sampler only ever
	// observes monotonically non-decreasing values.
	s2 := Open(Options{MemtableBytes: 4096})
	const writers, per = 4, 300
	recBytes := uint64(len(key(0)) + len(val(0)) + 12)
	stop := make(chan struct{})
	monoErr := make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := s2.Stats().WALBytes
			if cur < last {
				monoErr <- fmt.Errorf("WALBytes went backwards: %d -> %d", last, cur)
				return
			}
			last = cur
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s2.Put(key(w*per+i), val(0))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	select {
	case err := <-monoErr:
		t.Fatal(err)
	default:
	}
	if got, want := s2.Stats().WALBytes, uint64(writers*per)*recBytes; got != want {
		t.Fatalf("concurrent WALBytes = %d, want %d", got, want)
	}
}

// TestConcurrentSharedCPUInstrumentation drives two stores sharing one
// characterization CPU from concurrent goroutines — the cluster's shape,
// where every shard reports into the same whole-node counter stream.
func TestConcurrentSharedCPUInstrumentation(t *testing.T) {
	cpu := sim.New(sim.XeonE5645())
	a := Open(Options{MemtableBytes: 2048, CPU: cpu})
	b := Open(Options{MemtableBytes: 2048, CPU: cpu})
	var wg sync.WaitGroup
	for g, s := range []*Store{a, b} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				s.Put(key(g*10000+i), val(i))
				s.Get(key(g * 10000))
			}
		}(g, s)
	}
	wg.Wait()
	if cpu.Counts().Instructions() == 0 {
		t.Fatal("shared CPU recorded nothing")
	}
	if a.Len() != 400 || b.Len() != 400 {
		t.Fatalf("lens = %d, %d; want 400 each", a.Len(), b.Len())
	}
}
