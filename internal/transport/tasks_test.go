package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// fakeHost is a scripted TaskHost for exercising the task plane without
// the analytics engine.
type fakeHost struct {
	mu     sync.Mutex
	nextID uint64
	specs  map[uint64][]byte
	errs   map[uint64]error
}

func newFakeHost() *fakeHost {
	return &fakeHost{specs: map[uint64][]byte{}, errs: map[uint64]error{}}
}

func (h *fakeHost) SubmitTask(spec []byte) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if bytes.Equal(spec, []byte("shed")) {
		return 0, cluster.ErrOverload
	}
	h.nextID++
	h.specs[h.nextID] = append([]byte(nil), spec...)
	return h.nextID, nil
}

func (h *fakeHost) TaskStatus(id uint64) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.specs[id]; !ok {
		return false, fmt.Errorf("no task %d", id)
	}
	return true, h.errs[id]
}

func (h *fakeHost) ShuffleFetch(id uint64, part uint32) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	spec, ok := h.specs[id]
	if !ok {
		return nil, fmt.Errorf("no task %d", id)
	}
	// Partition p is the spec repeated p+1 times — big enough parts
	// exercise the chunked fetch path.
	return bytes.Repeat(spec, int(part)+1), nil
}

// TestTaskPlaneRoundTrip drives submit/status/fetch over a real socket.
func TestTaskPlaneRoundTrip(t *testing.T) {
	host := newFakeHost()
	cl := cluster.New(cluster.Config{Shards: 1})
	defer cl.Close()
	srv, err := Listen("127.0.0.1:0", cl, ServerOptions{Tasks: host})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.SubmitTask([]byte("task-spec"))
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	done, taskErr, err := c.TaskStatus(id)
	if err != nil || taskErr != nil || !done {
		t.Fatalf("TaskStatus = (%v,%v,%v), want (true,nil,nil)", done, taskErr, err)
	}
	data, err := c.ShuffleFetch(id, 2)
	if err != nil {
		t.Fatalf("ShuffleFetch: %v", err)
	}
	if want := bytes.Repeat([]byte("task-spec"), 3); !bytes.Equal(data, want) {
		t.Fatalf("ShuffleFetch = %q, want %q", data, want)
	}
}

// TestTaskPlaneChunkedFetch forces a partition across multiple frames.
func TestTaskPlaneChunkedFetch(t *testing.T) {
	host := newFakeHost()
	cl := cluster.New(cluster.Config{Shards: 1})
	defer cl.Close()
	srv, err := Listen("127.0.0.1:0", cl, ServerOptions{Tasks: host})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	id, err := c.SubmitTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.ShuffleFetch(id, 16) // 17 MiB: more than one frame holds
	if err != nil {
		t.Fatalf("chunked ShuffleFetch: %v", err)
	}
	if want := bytes.Repeat(spec, 17); !bytes.Equal(data, want) {
		t.Fatalf("chunked fetch reassembled %d bytes, want %d", len(data), len(want))
	}
}

// TestTaskPlaneErrors: sentinel errors survive the wire via the shared
// code mapping; task-plane calls on a host-less server fail loudly.
func TestTaskPlaneErrors(t *testing.T) {
	host := newFakeHost()
	cl := cluster.New(cluster.Config{Shards: 1})
	defer cl.Close()
	srv, err := Listen("127.0.0.1:0", cl, ServerOptions{Tasks: host})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), ClientOptions{RetryOverload: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.SubmitTask([]byte("shed")); !errors.Is(err, cluster.ErrOverload) {
		t.Fatalf("shed submit error = %v, want ErrOverload via errors.Is", err)
	}
	// A failed task's execution error comes back in the status, intact.
	id, err := c.SubmitTask([]byte("will-fail"))
	if err != nil {
		t.Fatal(err)
	}
	host.mu.Lock()
	host.errs[id] = errors.New("superstep 3 diverged")
	host.mu.Unlock()
	done, taskErr, err := c.TaskStatus(id)
	if err != nil || !done {
		t.Fatalf("TaskStatus = (%v,_,%v)", done, err)
	}
	if taskErr == nil || taskErr.Error() != "transport: remote: superstep 3 diverged" {
		t.Fatalf("task error = %v, want remote-wrapped message", taskErr)
	}
	// Unknown task ids surface a terminal task error rather than hang.
	if _, taskErr, err := c.TaskStatus(9999); err != nil || taskErr == nil {
		t.Fatalf("TaskStatus on unknown id = (_,%v,%v), want a task error", taskErr, err)
	}
	if _, err := c.ShuffleFetch(9999, 0); err == nil {
		t.Fatal("ShuffleFetch on unknown id succeeded")
	}

	// No task host configured: every task-plane opcode fails loudly.
	bare, err := Listen("127.0.0.1:0", cl, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	c2, err := Dial(bare.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.SubmitTask([]byte("x")); err == nil {
		t.Fatal("SubmitTask on host-less server succeeded")
	}
}

// TestTaskCodecs round-trips the task-plane payload codecs.
func TestTaskCodecs(t *testing.T) {
	if id, err := DecodeTaskID(EncodeTaskID(nil, 0xdeadbeefcafe)); err != nil || id != 0xdeadbeefcafe {
		t.Fatalf("task id round trip = (%x,%v)", id, err)
	}
	if _, err := DecodeTaskID([]byte{1, 2}); err == nil {
		t.Fatal("short task id decoded")
	}
	task, part, off, err := DecodeShuffleFetch(EncodeShuffleFetch(nil, 7, 3, 4096))
	if err != nil || task != 7 || part != 3 || off != 4096 {
		t.Fatalf("shuffle fetch round trip = (%d,%d,%d,%v)", task, part, off, err)
	}
	done, taskErr, err := DecodeTaskStatus(EncodeTaskStatus(nil, true, cluster.ErrOverload))
	if err != nil || !done || !errors.Is(taskErr, cluster.ErrOverload) {
		t.Fatalf("task status round trip = (%v,%v,%v)", done, taskErr, err)
	}
	if done, taskErr, err = DecodeTaskStatus(EncodeTaskStatus(nil, false, nil)); err != nil || done || taskErr != nil {
		t.Fatalf("running status round trip = (%v,%v,%v)", done, taskErr, err)
	}
	data, more, err := DecodeChunk(EncodeChunk(nil, []byte("abc"), true))
	if err != nil || !more || !bytes.Equal(data, []byte("abc")) {
		t.Fatalf("chunk round trip = (%q,%v,%v)", data, more, err)
	}
}
