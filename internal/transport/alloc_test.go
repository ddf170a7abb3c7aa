//go:build !race

// Allocation-regression guards for the hot path (DESIGN.md §12). These
// are hard ceilings, not benchmarks: plain `go test` fails when a codec
// or the end-to-end dispatch path regresses to per-op allocation. The
// file is excluded under the race detector because its instrumentation
// inflates malloc counts; the race job still compiles and runs every
// other test in the package.
package transport

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// requireAllocs runs fn under testing.AllocsPerRun and fails the test
// when the average exceeds max.
func requireAllocs(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, fn)
	if got > max {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, max)
	}
}

// TestEncodeFrameAllocFree pins the request-side encoders at zero
// steady-state allocations when the destination buffer is reused.
func TestEncodeFrameAllocFree(t *testing.T) {
	payload := []byte("key=value payload bytes")
	buf := make([]byte, 0, 256)
	requireAllocs(t, "AppendFrame", 0, func() {
		buf = AppendFrame(buf[:0], 7, OpPut, payload)
	})
	requireAllocs(t, "AppendTracedFrame", 0, func() {
		buf = AppendTracedFrame(buf[:0], 7, OpPut, 0xfeed, 0xbead, payload)
	})
	// The in-place builders the client and server actually use: header
	// template, payload append, length stamp — all into one buffer.
	requireAllocs(t, "beginRequest/finishFrame", 0, func() {
		b := beginRequest(buf[:0], OpGet, 0xbeef, 0xfade)
		b = append(b, payload...)
		buf = finishFrame(b)
		patchFrameID(buf, 42)
	})
	requireAllocs(t, "beginResponse/finishFrame", 0, func() {
		b := beginResponse(buf[:0], 42, RespValue)
		b = appendBytes32(b, payload)
		buf = finishFrame(b)
	})
}

// TestDecodeFrameAllocFree pins frame and payload decoding at zero
// allocations: every decoded field aliases the input buffer.
func TestDecodeFrameAllocFree(t *testing.T) {
	frame := AppendFrame(nil, 9, OpPut, EncodePut(nil, []byte("alpha"), []byte("beta")))
	requireAllocs(t, "DecodeFrame", 0, func() {
		_, _, payload, _, err := DecodeFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodePut(payload); err != nil {
			t.Fatal(err)
		}
	})

	ops := make([]cluster.Op, 0, 8)
	for i := 0; i < 8; i++ {
		ops = append(ops, cluster.Op{
			Kind:  cluster.OpPut,
			Key:   fmt.Appendf(nil, "key-%d", i),
			Value: fmt.Appendf(nil, "value-%d", i),
		})
	}
	batch := EncodeBatch(nil, ops, false)
	dst := make([]cluster.Op, 0, len(ops))
	requireAllocs(t, "DecodeBatchAppend", 0, func() {
		out, _, err := DecodeBatchAppend(dst[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(ops) {
			t.Fatalf("decoded %d ops, want %d", len(out), len(ops))
		}
		dst = out
	})
}

// TestServerDispatchAllocBudget pins the end-to-end request path — a
// real listener, the pipelined client, frame pools, dispatch, and the
// engine — to a hard per-round-trip allocation budget. The ceilings
// leave headroom over the measured steady state (single-digit to low
// double-digit allocs) while still failing loudly on a return to the
// pre-§12 world of fresh buffers per frame (~200 allocs per batch).
func TestServerDispatchAllocBudget(t *testing.T) {
	backend := newShard(t, 2)
	t.Cleanup(func() { backend.Close() })
	srv := startServer(t, backend, ServerOptions{})
	cl := dialT(t, srv.Addr(), ClientOptions{Conns: 1})

	key, value := []byte("alloc-key"), []byte("alloc-value")
	ops := make([]cluster.Op, 8)
	for i := range ops {
		ops[i] = cluster.Op{
			Kind:  cluster.OpPut,
			Key:   fmt.Appendf(nil, "alloc-batch-%d", i),
			Value: value,
		}
	}
	// Warm the size-class pools, the connection, and the engine so the
	// measurement sees steady state, not first-touch growth.
	for i := 0; i < 64; i++ {
		if err := cl.Put(key, value); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}

	requireAllocs(t, "Put round trip", 20, func() {
		if err := cl.Put(key, value); err != nil {
			t.Fatal(err)
		}
	})
	requireAllocs(t, "Get round trip", 20, func() {
		if _, found, err := cl.Get(key); err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
	})
	requireAllocs(t, "Apply 8-op batch round trip", 40, func() {
		if _, err := cl.Apply(ops); err != nil {
			t.Fatal(err)
		}
	})

	// A 100-row scan: the server scans the engine's rows without copying
	// them and encodes them once; the client decodes the page into the
	// caller's slice and rebases it into one arena.
	const rows = 100
	for i := 0; i < rows; i++ {
		if err := cl.Put(fmt.Appendf(nil, "alloc-scan-%03d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	start := []byte("alloc-scan-")
	dst := make([]engine.Entry, 0, rows)
	scan := func() {
		out, err := cl.AppendScan(dst[:0], start, rows)
		if err != nil || len(out) != rows {
			t.Fatalf("scan: %d rows, %v", len(out), err)
		}
		dst = out
	}
	for i := 0; i < 64; i++ {
		scan()
	}
	requireAllocs(t, "Scan 100-row round trip into a reused dst", 20, scan)
}
