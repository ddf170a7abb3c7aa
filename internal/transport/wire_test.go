package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestFrameRoundTrip checks AppendFrame/DecodeFrame over random ids,
// opcodes and payloads, including frames glued back to back.
func TestFrameRoundTrip(t *testing.T) {
	f := func(id uint64, op uint8, payload []byte, trailer []byte) bool {
		buf := AppendFrame(nil, id, Opcode(op), payload)
		buf = append(buf, trailer...)
		gotID, gotOp, gotPayload, n, err := DecodeFrame(buf, 0)
		return err == nil &&
			gotID == id && gotOp == Opcode(op) &&
			bytes.Equal(gotPayload, payload) &&
			n == 13+len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameReadWrite round-trips frames through the streaming reader.
func TestFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	type frame struct {
		id      uint64
		op      Opcode
		payload []byte
	}
	rng := rand.New(rand.NewSource(7))
	var want []frame
	for i := 0; i < 50; i++ {
		p := make([]byte, rng.Intn(200))
		rng.Read(p)
		f := frame{id: rng.Uint64(), op: Opcode(rng.Intn(256)), payload: p}
		want = append(want, f)
		buf.Write(AppendFrame(nil, f.id, f.op, f.payload))
	}
	for i, f := range want {
		id, op, payload, err := readFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != f.id || op != f.op || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, _, _, err := readFrame(&buf, 0); err != io.EOF {
		t.Fatalf("tail read = %v, want EOF", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	big := AppendFrame(nil, 1, OpGet, make([]byte, 1024))
	if _, _, _, _, err := DecodeFrame(big, 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame over limit = %v, want ErrFrameTooLarge", err)
	}
	if _, _, _, err := readFrame(bytes.NewReader(big), 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrame over limit = %v, want ErrFrameTooLarge", err)
	}
}

// randOps builds a random batch covering all three op kinds.
func randOps(rng *rand.Rand) []cluster.Op {
	ops := make([]cluster.Op, rng.Intn(20))
	for i := range ops {
		key := make([]byte, rng.Intn(32))
		rng.Read(key)
		switch rng.Intn(3) {
		case 0:
			ops[i] = cluster.Op{Kind: cluster.OpGet, Key: key}
		case 1:
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			ops[i] = cluster.Op{Kind: cluster.OpPut, Key: key, Value: val}
		default:
			ops[i] = cluster.Op{Kind: cluster.OpDelete, Key: key}
		}
	}
	return ops
}

// TestBatchRoundTrip property-tests the batch codec over random op
// mixes and both admission flags.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		ops := randOps(rng)
		try := rng.Intn(2) == 0
		got, gotTry, err := DecodeBatch(EncodeBatch(nil, ops, try))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if gotTry != try || len(got) != len(ops) {
			t.Fatalf("iter %d: try=%v len=%d, want %v/%d", iter, gotTry, len(got), try, len(ops))
		}
		for i := range ops {
			if got[i].Kind != ops[i].Kind || !bytes.Equal(got[i].Key, ops[i].Key) {
				t.Fatalf("iter %d op %d mismatch", iter, i)
			}
			if ops[i].Kind == cluster.OpPut && !bytes.Equal(got[i].Value, ops[i].Value) {
				t.Fatalf("iter %d op %d value mismatch", iter, i)
			}
		}

		// The same op list rides OpMirror — writes only, plus the epoch
		// on a migration chunk.
		var writes []cluster.Op
		for _, op := range ops {
			if op.Kind != cluster.OpGet {
				writes = append(writes, op)
			}
		}
		migration, epoch := try, uint64(iter)
		mirrored, gotMig, gotEpoch, err := DecodeMirrorAppend(nil, EncodeMirror(nil, writes, migration, epoch))
		if err != nil || gotMig != migration || len(mirrored) != len(writes) || (migration && gotEpoch != epoch) {
			t.Fatalf("iter %d mirror: %v migration=%v epoch=%d len=%d, want %v/%d/%d",
				iter, err, gotMig, gotEpoch, len(mirrored), migration, epoch, len(writes))
		}
		for i := range writes {
			if mirrored[i].Kind != writes[i].Kind || !bytes.Equal(mirrored[i].Key, writes[i].Key) ||
				!bytes.Equal(mirrored[i].Value, writes[i].Value) {
				t.Fatalf("iter %d mirrored op %d mismatch", iter, i)
			}
		}
		if len(writes) < len(ops) {
			if _, _, _, err := DecodeMirrorAppend(nil, EncodeMirror(nil, ops, false, 0)); !errors.Is(err, ErrMalformed) {
				t.Fatalf("iter %d: mirror payload carrying a read decoded: %v", iter, err)
			}
		}
	}
}

func TestPutScanValueRoundTrip(t *testing.T) {
	f := func(key, value, start []byte, limit int32, found bool) bool {
		k, v, err := DecodePut(EncodePut(nil, key, value))
		if err != nil || !bytes.Equal(k, key) || !bytes.Equal(v, value) {
			return false
		}
		s, l, err := DecodeScan(EncodeScan(nil, start, int(uint32(limit))))
		if err != nil || !bytes.Equal(s, start) || l != int(uint32(limit)) {
			return false
		}
		val, ok, err := DecodeValue(EncodeValue(nil, value, found))
		if err != nil || ok != found {
			return false
		}
		return !found || bytes.Equal(val, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesResultsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		entries := make([]engine.Entry, rng.Intn(10))
		for i := range entries {
			entries[i].Key = []byte{byte(i), byte(iter)}
			entries[i].Value = make([]byte, rng.Intn(16))
			rng.Read(entries[i].Value)
		}
		more := rng.Intn(2) == 0
		got, gotMore, err := DecodeEntries(EncodeEntries(nil, entries, more))
		if err != nil || len(got) != len(entries) || gotMore != more {
			t.Fatalf("entries iter %d: %v (len %d want %d, more %v want %v)",
				iter, err, len(got), len(entries), gotMore, more)
		}
		for i := range entries {
			if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) {
				t.Fatalf("entries iter %d idx %d mismatch", iter, i)
			}
		}

		res := make([]cluster.OpResult, rng.Intn(10))
		for i := range res {
			if rng.Intn(2) == 0 {
				res[i] = cluster.OpResult{Found: true, Value: []byte{byte(i)}}
			}
			res[i].Applied = rng.Intn(2) == 0
		}
		var execErr error
		if rng.Intn(2) == 0 {
			execErr = cluster.ErrOverload
		}
		gotRes, gotErr, decodeErr := DecodeResults(EncodeResults(nil, res, execErr))
		if decodeErr != nil {
			t.Fatalf("results iter %d: %v", iter, decodeErr)
		}
		if !errors.Is(gotErr, execErr) && !(gotErr == nil && execErr == nil) {
			t.Fatalf("results iter %d err = %v, want %v", iter, gotErr, execErr)
		}
		for i := range res {
			if gotRes[i].Found != res[i].Found || gotRes[i].Applied != res[i].Applied || !bytes.Equal(gotRes[i].Value, res[i].Value) {
				t.Fatalf("results iter %d idx %d mismatch", iter, i)
			}
		}
	}
}

// TestResultsCarryErrorDetail pins that a non-sentinel execution error
// keeps its message through a RespResults frame, like RespError does.
func TestResultsCarryErrorDetail(t *testing.T) {
	res := []cluster.OpResult{{Found: true, Value: []byte("v")}}
	got, execErr, decodeErr := DecodeResults(EncodeResults(nil, res, errors.New("engine exploded")))
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if len(got) != 1 || !got[0].Found {
		t.Fatalf("results = %+v", got)
	}
	if execErr == nil || !strings.Contains(execErr.Error(), "engine exploded") {
		t.Fatalf("execErr = %v, want the original detail preserved", execErr)
	}
}

// TestErrorRoundTrip pins the sentinel mapping: the cluster's admission
// and lifecycle errors must survive the wire as errors.Is-able values.
func TestErrorRoundTrip(t *testing.T) {
	for _, err := range []error{cluster.ErrOverload, cluster.ErrClosed, ErrMalformed, errors.New("boom")} {
		got, decodeErr := DecodeError(EncodeError(nil, err))
		if decodeErr != nil {
			t.Fatal(decodeErr)
		}
		switch {
		case errors.Is(err, cluster.ErrOverload) && got != cluster.ErrOverload:
			t.Fatalf("overload decoded as %v", got)
		case errors.Is(err, cluster.ErrClosed) && got != cluster.ErrClosed:
			t.Fatalf("closed decoded as %v", got)
		case got == nil:
			t.Fatalf("error %v decoded as nil", err)
		}
	}
	if got, err := DecodeError(EncodeError(nil, nil)); err != nil || got != nil {
		t.Fatalf("nil error round trip = %v, %v", got, err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame parser and every
// payload decoder: none may panic, whatever the input.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 1, OpGet, []byte("key")))
	f.Add(AppendFrame(nil, 2, OpBatch, EncodeBatch(nil, []cluster.Op{
		{Kind: cluster.OpPut, Key: []byte("k"), Value: []byte("v")},
		{Kind: cluster.OpGet, Key: []byte("k")},
	}, true)))
	f.Add(AppendFrame(nil, 3, RespResults, EncodeResults(nil,
		[]cluster.OpResult{{Found: true, Value: []byte("v")}}, cluster.ErrOverload)))
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, op, payload, _, err := DecodeFrame(data, 1<<20)
		if err != nil {
			return
		}
		// A structurally valid frame: its payload decoders must also be
		// panic-free on whatever the payload holds.
		switch op {
		case OpPut:
			DecodePut(payload)
		case OpScan:
			DecodeScan(payload)
		case OpBatch:
			DecodeBatch(payload)
		case RespValue:
			DecodeValue(payload)
		case RespEntries:
			DecodeEntries(payload)
		case RespResults:
			DecodeResults(payload)
		case RespError:
			DecodeError(payload)
		}
		// And the streaming reader must agree with the buffer parser.
		if _, rop, _, rerr := readFrame(bytes.NewReader(data), 1<<20); rerr == nil && rop != op {
			t.Fatalf("readFrame op %v != DecodeFrame op %v", rop, op)
		}
	})
}

// wireTap is a one-connection TCP relay that records the bytes crossing
// it in each direction, so a test can compare what a real Client and a
// real Server put on the wire against captured frames.
type wireTap struct {
	addr      string
	mu        sync.Mutex
	req, resp bytes.Buffer
}

// tapWriter appends to one of the tap's buffers under its lock.
type tapWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w tapWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func startWireTap(t *testing.T, target string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tap := &wireTap{addr: ln.Addr().String()}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer s.Close()
		// Each direction is recorded before it is forwarded, so by the
		// time a client call returns both of its frames are in the tap.
		go io.Copy(s, io.TeeReader(c, tapWriter{&tap.mu, &tap.req}))
		io.Copy(c, io.TeeReader(s, tapWriter{&tap.mu, &tap.resp}))
	}()
	return tap
}

// take returns and clears the bytes recorded since the last take.
func (w *wireTap) take() (req, resp string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	req, resp = hex.EncodeToString(w.req.Bytes()), hex.EncodeToString(w.resp.Bytes())
	w.req.Reset()
	w.resp.Reset()
	return req, resp
}

// namedListener reports a fixed address, so frames that embed the
// server's own address (the node name of a metrics snapshot) repeat.
type namedListener struct {
	net.Listener
	name string
}

type namedAddr string

func (a namedAddr) Network() string { return "tcp" }
func (a namedAddr) String() string  { return string(a) }

func (l namedListener) Addr() net.Addr { return namedAddr(l.name) }

// TestGoldenFrames pins the wire: one scripted client session against a
// single-member elastic backend, every request and response frame
// compared byte for byte with goldenFrames. The client runs without a
// span ring (a traced call forwards its caller's span id instead of
// minting a random one) and the frame ids count up from 1 on the one
// connection, so the session is deterministic.
func TestGoldenFrames(t *testing.T) {
	backend := cluster.New(cluster.Config{
		SelfAddr: "golden:1",
		Dial:     func(string) (cluster.Remote, error) { return nil, errors.New("golden: no peers") },
		Engine:   engine.Options{MemtableBytes: 32 << 10},
	})
	defer backend.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(namedListener{ln, "golden:1"}, backend, ServerOptions{Tasks: newFakeHost()})
	defer srv.Close()
	tap := startWireTap(t, ln.Addr().String())
	cl := dialT(t, tap.addr, ClientOptions{RetryOverload: -1})

	const trace, parent = 0x1111111111111111, 0x2222222222222222
	k, v := []byte("k1"), []byte("v1")
	batch := []cluster.Op{
		{Kind: cluster.OpPut, Key: []byte("k2"), Value: []byte("v2")},
		{Kind: cluster.OpGet, Key: []byte("k2")},
		{Kind: cluster.OpDelete, Key: []byte("k3")},
		{Kind: cluster.OpGet, Key: []byte("nope")},
	}
	mirror := []cluster.Op{{Kind: cluster.OpPut, Key: []byte("m1"), Value: []byte("x")}, {Kind: cluster.OpDelete, Key: []byte("m0")}}
	tracedMirror := []cluster.Op{{Kind: cluster.OpPut, Key: []byte("m2"), Value: []byte("y"), Trace: trace, Parent: parent}}
	want := func(target, err error) error {
		if !errors.Is(err, target) {
			return fmt.Errorf("got %v, want %v", err, target)
		}
		return nil
	}
	dataOps := func(suffix string, tr, pa uint64) []goldenStep {
		return []goldenStep{
			{"put" + suffix, func() error { return cl.PutTraced(tr, pa, k, v) }},
			{"get" + suffix, func() error { _, _, err := cl.GetTraced(tr, pa, k); return err }},
			{"delete" + suffix, func() error { return cl.DeleteTraced(tr, pa, k) }},
			{"batch" + suffix, func() error { _, err := cl.ApplyTraced(tr, pa, batch); return err }},
			{"batch-try" + suffix, func() error { _, err := cl.TryApplyTraced(tr, pa, batch[:2]); return err }},
		}
	}
	steps := dataOps("", 0, 0)
	steps = append(steps,
		goldenStep{"get-miss", func() error { _, _, err := cl.Get([]byte("nope")); return err }},
		goldenStep{"scan", func() error { _, err := cl.Scan(nil, 10); return err }},
		goldenStep{"ping", cl.Ping},
		goldenStep{"task-submit", func() error { _, err := cl.SubmitTask([]byte("spec")); return err }},
		goldenStep{"task-status", func() error { _, _, err := cl.TaskStatus(1); return err }},
		goldenStep{"task-status-unknown", func() error { _, _, err := cl.TaskStatus(99); return err }},
		goldenStep{"shuffle-fetch", func() error { _, err := cl.ShuffleFetch(1, 1); return err }},
		goldenStep{"trace-fetch", func() error { _, err := cl.FetchSpans(0xabc); return err }},
		goldenStep{"gossip", func() error { _, err := cl.Gossip(backend.EncodedView()); return err }},
		goldenStep{"mirror", func() error { return cl.ApplyLocal(mirror, false, 0) }},
		goldenStep{"mirror-migration", func() error { return cl.ApplyLocal(mirror, true, backend.ViewEpoch()) }},
		goldenStep{"mirror-wrong-epoch", func() error { return want(cluster.ErrWrongEpoch, cl.ApplyLocal(mirror, true, 7)) }},
		goldenStep{"get-local", func() error { _, _, err := cl.GetLocal([]byte("m1")); return err }},
		goldenStep{"metrics-fetch", func() error { _, err := cl.FetchMetrics(); return err }},
		goldenStep{"events-fetch", func() error { _, err := cl.FetchEvents(); return err }},
		goldenStep{"task-submit/traced", func() error { _, err := cl.SubmitTaskTraced(trace, []byte("spec")); return err }},
		goldenStep{"shuffle-fetch/traced", func() error { _, err := cl.ShuffleFetchTraced(trace, 1, 0); return err }},
		goldenStep{"mirror/traced", func() error { return cl.ApplyLocal(tracedMirror, false, 0) }},
	)
	steps = append(steps, dataOps("/traced", trace, parent)...)
	steps = append(steps, goldenStep{"", func() error { cl.SetEpoch(backend.ViewEpoch()); return nil }})
	steps = append(steps, dataOps("/epoch", 0, 0)...)
	steps = append(steps, goldenStep{"scan/epoch", func() error { _, err := cl.Scan([]byte("k"), 2); return err }})
	steps = append(steps, dataOps("/traced+epoch", trace, parent)...)
	steps = append(steps,
		goldenStep{"", func() error { cl.SetEpoch(99); return nil }},
		goldenStep{"get/stale-epoch", func() error { _, _, err := cl.Get(k); return want(cluster.ErrWrongEpoch, err) }},
	)

	frames := goldenFrames
	for _, st := range steps {
		if err := st.call(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if st.name == "" {
			continue
		}
		req, resp := tap.take()
		if len(frames) == 0 || frames[0] != [3]string{st.name, req, resp} {
			t.Errorf("wire changed; session now reads\n\t{%q, %q, %q},", st.name, req, resp)
		}
		if len(frames) > 0 {
			frames = frames[1:]
		}
	}
	if len(frames) != 0 {
		t.Errorf("%d golden frames left over, first %q", len(frames), frames[0][0])
	}
}

type goldenStep struct {
	name string // "" = a step that sends nothing
	call func() error
}

// goldenFrames is TestGoldenFrames' session as {step, request hex,
// response hex}, captured at the commit before the opcode table and the
// client's exchange helper replaced the per-opcode code (PR 12): the
// refactor moved no byte of any surviving opcode.
var goldenFrames = [][3]string{
	{"put", "00000011000000000000000102000000026b317631", "00000009000000000000000182"},
	{"get", "0000000b0000000000000002016b31", "0000000c000000000000000281017631"},
	{"delete", "0000000b0000000000000003036b31", "00000009000000000000000382"},
	{"batch", "00000032000000000000000405000000000401000000026b3200000002763200000000026b3202000000026b3300000000046e6f7065", "0000002800000000000000048400000000000000000402000000000300000002763202000000000200000000"},
	{"batch-try", "00000022000000000000000505010000000201000000026b3200000002763200000000026b32", "0000001e000000000000000584000000000000000002020000000003000000027632"},
	{"get-miss", "0000000d0000000000000006016e6f7065", "0000000a00000000000000068100"},
	{"scan", "0000000d0000000000000007040000000a", "0000001a0000000000000007830000000001000000026b32000000027632"},
	{"ping", "00000009000000000000000807", "00000009000000000000000882"},
	{"task-submit", "0000000d00000000000000090873706563", "000000110000000000000009860000000000000001"},
	{"task-status", "00000011000000000000000a090000000000000001", "0000000b000000000000000a870100"},
	{"task-status-unknown", "00000011000000000000000b090000000000000063", "00000015000000000000000b8700046e6f207461736b203939"},
	{"shuffle-fetch", "00000019000000000000000c0a00000000000000010000000100000000", "00000012000000000000000c88007370656373706563"},
	{"trace-fetch", "00000011000000000000000d0b0000000000000abc", "0000000d000000000000000d8900000000"},
	{"gossip", "0000003b000000000000000e0c01000000000000000100010040000162a749324acc3f2700000000000000010000000000000001000008676f6c64656e3a31", "00000009000000000000000e8a"},
	{"mirror", "00000021000000000000000f0d000000000201000000026d31000000017802000000026d30", "00000009000000000000000f82"},
	{"mirror-migration", "0000002900000000000000100d0100000000000000010000000201000000026d31000000017802000000026d30", "00000009000000000000001082"},
	{"mirror-wrong-epoch", "0000002900000000000000110d0100000000000000070000000201000000026d31000000017802000000026d30", "0000000a0000000000000011ff05"},
	{"get-local", "0000000b00000000000000120e6d31", "0000000b0000000000000012810178"},
	{"metrics-fetch", "0000000900000000000000130f", "0000001800000000000000138b010008676f6c64656e3a3100000000"},
	{"events-fetch", "00000009000000000000001410", "0000000e00000000000000148c0100000000"},
	{"task-submit/traced", "0000001d0000000000000015481111111111111111000000000000000073706563", "000000110000000000000015860000000000000002"},
	{"shuffle-fetch/traced", "0000002900000000000000164a1111111111111111000000000000000000000000000000010000000000000000", "0000000e0000000000000016880073706563"},
	{"mirror/traced", "0000002a00000000000000174d11111111111111112222222222222222000000000101000000026d320000000179", "00000009000000000000001782"},
	{"put/traced", "0000002100000000000000184211111111111111112222222222222222000000026b317631", "00000009000000000000001882"},
	{"get/traced", "0000001b000000000000001941111111111111111122222222222222226b31", "0000000c000000000000001981017631"},
	{"delete/traced", "0000001b000000000000001a43111111111111111122222222222222226b31", "00000009000000000000001a82"},
	{"batch/traced", "00000042000000000000001b4511111111111111112222222222222222000000000401000000026b3200000002763200000000026b3202000000026b3300000000046e6f7065", "00000028000000000000001b8400000000000000000402000000000300000002763202000000000200000000"},
	{"batch-try/traced", "00000032000000000000001c4511111111111111112222222222222222010000000201000000026b3200000002763200000000026b32", "0000001e000000000000001c84000000000000000002020000000003000000027632"},
	{"put/epoch", "00000019000000000000001d220000000000000001000000026b317631", "00000009000000000000001d82"},
	{"get/epoch", "00000013000000000000001e2100000000000000016b31", "0000000c000000000000001e81017631"},
	{"delete/epoch", "00000013000000000000001f2300000000000000016b31", "00000009000000000000001f82"},
	{"batch/epoch", "0000003a0000000000000020250000000000000001000000000401000000026b3200000002763200000000026b3202000000026b3300000000046e6f7065", "0000002800000000000000208400000000000000000402000000000300000002763202000000000200000000"},
	{"batch-try/epoch", "0000002a0000000000000021250000000000000001010000000201000000026b3200000002763200000000026b32", "0000001e000000000000002184000000000000000002020000000003000000027632"},
	{"scan/epoch", "000000160000000000000022240000000000000001000000026b", "000000250000000000000022830000000002000000026b32000000027632000000026d310000000178"},
	{"put/traced+epoch", "00000029000000000000002362111111111111111122222222222222220000000000000001000000026b317631", "00000009000000000000002382"},
	{"get/traced+epoch", "000000230000000000000024611111111111111111222222222222222200000000000000016b31", "0000000c000000000000002481017631"},
	{"delete/traced+epoch", "000000230000000000000025631111111111111111222222222222222200000000000000016b31", "00000009000000000000002582"},
	{"batch/traced+epoch", "0000004a000000000000002665111111111111111122222222222222220000000000000001000000000401000000026b3200000002763200000000026b3202000000026b3300000000046e6f7065", "0000002800000000000000268400000000000000000402000000000300000002763202000000000200000000"},
	{"batch-try/traced+epoch", "0000003a000000000000002765111111111111111122222222222222220000000000000001010000000201000000026b3200000002763200000000026b32", "0000001e000000000000002784000000000000000002020000000003000000027632"},
	{"get/stale-epoch", "0000001300000000000000282100000000000000636b31", "0000003b00000000000000288a01000000000000000100010040000162a749324acc3f2700000000000000010000000000000001000008676f6c64656e3a31"},
}

// TestReservedOpcode pins what became of the retired stats opcode: byte
// 0x06 answers like any unknown opcode — an errCodeBad error frame for
// that request alone — and the connection keeps serving the request
// pipelined behind it.
func TestReservedOpcode(t *testing.T) {
	backend := newShard(t, 1)
	defer backend.Close()
	backend.Put([]byte("k"), []byte("v"))
	srv := startServer(t, backend, ServerOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pipelined := AppendFrame(AppendFrame(nil, 1, 0x06, nil), 2, OpGet, []byte("k"))
	if _, err := conn.Write(pipelined); err != nil {
		t.Fatal(err)
	}
	got := map[uint64][]byte{} // responses return in completion order
	for range 2 {
		id, op, payload, err := readFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = append([]byte{byte(op)}, payload...)
	}
	if r := got[1]; len(r) < 2 || Opcode(r[0]) != RespError || r[1] != errCodeBad {
		t.Fatalf("opcode 0x06 answered % x, want a RespError frame with errCodeBad", r)
	}
	if want := append([]byte{byte(RespValue)}, EncodeValue(nil, []byte("v"), true)...); !bytes.Equal(got[2], want) {
		t.Fatalf("request pipelined behind opcode 0x06 answered % x, want % x", got[2], want)
	}
}

// TestOpTableComplete checks the one opcode table against the declared
// request opcodes: each has a row with a name and a response opcode, the
// table has no other rows, and RegisterMetrics exports a request counter
// and a latency histogram per row.
func TestOpTableComplete(t *testing.T) {
	declared := []Opcode{
		OpGet, OpPut, OpDelete, OpScan, OpBatch, OpPing,
		OpTaskSubmit, OpTaskStatus, OpShuffleFetch, OpTraceFetch,
		OpGossip, OpMirror, OpGetLocal, OpMetricsFetch, OpEventsFetch,
	}
	backend := newShard(t, 1)
	defer backend.Close()
	reg := obs.NewRegistry()
	startServer(t, backend, ServerOptions{}).RegisterMetrics(reg)
	snap := reg.Capture("")
	for _, op := range declared {
		if int(op) >= len(opTable) || opTable[op].name == "" || opTable[op].resp&0x80 == 0 {
			t.Errorf("opcode %#x has no complete opTable row", byte(op))
			continue
		}
		labels := `{op="` + opTable[op].name + `"}`
		if snap.Family("bd_transport_requests_total").Get(labels) == nil ||
			snap.Family("bd_transport_op_seconds").Get(labels) == nil {
			t.Errorf("RegisterMetrics exports no series for %s", labels)
		}
	}
	rows := 0
	for _, info := range opTable {
		if info.name != "" {
			rows++
		}
	}
	if rows != len(declared) {
		t.Errorf("opTable has %d named rows for %d declared request opcodes", rows, len(declared))
	}
}
