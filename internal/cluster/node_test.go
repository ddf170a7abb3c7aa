package cluster

import (
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestNodeAdmissionControl fills a stopped node's bounded queue and
// verifies the overflow is shed, then starts the workers and verifies the
// accepted requests drain.
func TestNodeAdmissionControl(t *testing.T) {
	eng, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := newNode(0, eng, 2, 1, 8)

	var done sync.WaitGroup
	results := make([]OpResult, 3)
	mk := func(i int) *request {
		return &request{
			ops:      []Op{{Kind: OpPut, Key: []byte{byte('a' + i)}, Value: []byte("v")}},
			replicas: [][]mirror{nil},
			results:  results,
			idx:      []int{i},
			done:     &done,
		}
	}
	done.Add(2)
	if err := n.trySubmit(mk(0)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := n.trySubmit(mk(1)); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if err := n.trySubmit(mk(2)); err != ErrOverload {
		t.Fatalf("third submit = %v, want ErrOverload", err)
	}
	st := n.stats()
	if st.Accepted != 2 || st.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 2/1", st.Accepted, st.Rejected)
	}

	n.start()
	done.Wait()
	if v, ok := n.eng.Get([]byte("a")); !ok || string(v) != "v" {
		t.Fatal("accepted request not applied")
	}
	n.close()
	if err := n.trySubmit(mk(2)); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestNodeBatchCoalescing verifies a worker drains queued requests in
// coalesced groups bounded by maxBatch.
func TestNodeBatchCoalescing(t *testing.T) {
	eng, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := newNode(0, eng, 64, 1, 16)
	var done sync.WaitGroup
	const reqs = 32
	for i := 0; i < reqs; i++ {
		done.Add(1)
		req := &request{
			ops:      []Op{{Kind: OpPut, Key: []byte{byte(i)}, Value: []byte{byte(i)}}},
			replicas: [][]mirror{nil},
			results:  make([]OpResult, 1),
			idx:      []int{0},
			done:     &done,
		}
		if err := n.submit(req); err != nil {
			t.Fatal(err)
		}
	}
	n.start()
	done.Wait()
	n.close()
	st := n.stats()
	if st.Ops != reqs {
		t.Fatalf("ops = %d, want %d", st.Ops, reqs)
	}
	// All 32 single-op requests were queued before the worker started, so
	// they drain in at most ceil(32/16) + slack wakeups, well under 32.
	if st.Batches >= reqs/2 {
		t.Fatalf("batches = %d, want coalescing well under %d", st.Batches, reqs)
	}
}
