package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
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

func TestStatsRoundTrip(t *testing.T) {
	st := cluster.Stats{
		Nodes: []cluster.NodeStats{
			{ID: 0, Accepted: 10, Rejected: 1, Batches: 4, Ops: 40, TransportErrs: 2,
				Store: engine.Stats{Puts: 7, Gets: 30, Flushes: 2, WALBytes: 9999, BlockCacheHits: 5}},
			{ID: 3, Accepted: 2, Ops: 2, Down: true,
				HintsPending: 17, HintsReplayed: 256, HintsDropped: 3,
				Store: engine.Stats{Deletes: 1, Scans: 8, ScannedEntries: 64}},
		},
	}
	for _, ns := range st.Nodes {
		st.Accepted += ns.Accepted
		st.Rejected += ns.Rejected
		st.Batches += ns.Batches
		st.Ops += ns.Ops
		if ns.Down {
			st.Down++
		}
	}
	got, err := DecodeStats(EncodeStats(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 2 || got.Accepted != st.Accepted || got.Ops != st.Ops || got.Down != st.Down {
		t.Fatalf("stats = %+v, want %+v", got, st)
	}
	for i := range st.Nodes {
		if got.Nodes[i] != st.Nodes[i] {
			t.Fatalf("node %d = %+v, want %+v", i, got.Nodes[i], st.Nodes[i])
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
	f.Add(AppendFrame(nil, 4, RespStats, EncodeStats(nil, cluster.Stats{
		Nodes: []cluster.NodeStats{{ID: 1, Ops: 9}}})))
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
		case RespStats:
			DecodeStats(payload)
		case RespError:
			DecodeError(payload)
		}
		// And the streaming reader must agree with the buffer parser.
		if _, rop, _, rerr := readFrame(bytes.NewReader(data), 1<<20); rerr == nil && rop != op {
			t.Fatalf("readFrame op %v != DecodeFrame op %v", rop, op)
		}
	})
}
