package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Wire format. Every message — request or response — is one frame:
//
//	+-----------+-----------+----------+------------------+
//	| length u32| id u64    | opcode u8| payload           |
//	+-----------+-----------+----------+------------------+
//
// All integers are big-endian. The length prefix counts everything after
// itself (id + opcode + payload), so a frame occupies 4+length bytes on
// the wire. The id echoes from request to response, which is what lets a
// connection carry many requests concurrently (pipelining): responses
// return in completion order and the client matches them back by id.
//
// Decoding is zero-copy-friendly: decoded keys, values and entries alias
// the payload buffer. Callers that retain them beyond the buffer's
// lifetime must copy (the LSM engine copies on Put, so the server's
// dispatch path needs no extra copies).

// Opcode identifies a frame's message type. Requests have the high bit
// clear, responses set.
type Opcode uint8

// Request opcodes.
const (
	OpGet    Opcode = 0x01 // payload: key
	OpPut    Opcode = 0x02 // payload: klen u32 | key | value
	OpDelete Opcode = 0x03 // payload: key
	OpScan   Opcode = 0x04 // payload: limit u32 | start key
	OpBatch  Opcode = 0x05 // payload: flags u8 | count u32 | ops
	// 0x06 (and its response 0x85) carried a hand-packed stats snapshot
	// until the registry federation (OpMetricsFetch) replaced it. Both
	// bytes stay reserved and answer like any unknown opcode.

	// OpPing is the liveness probe. The server answers RespOK straight
	// from the connection's read loop, without taking an admission
	// permit: an overloaded server is alive, and health checks that shed
	// under load would turn every overload into a false death.
	OpPing Opcode = 0x07 // payload: empty

	// The task plane (internal/analytics). Task specs and results are
	// opaque bytes to the transport — the analytics engine owns their
	// encoding — so the wire layer stays workload-agnostic. Error frames
	// reuse the same code mapping as the data plane, so ErrOverload /
	// ErrClosed keep surviving errors.Is across the wire.
	OpTaskSubmit   Opcode = 0x08 // payload: opaque task spec
	OpTaskStatus   Opcode = 0x09 // payload: task id u64
	OpShuffleFetch Opcode = 0x0A // payload: task id u64 | part u32 | offset u32

	// OpTraceFetch asks a node for every span it retains under one trace
	// id, so a collector can assemble a cross-process trace over the data
	// plane instead of scraping each node's /tracez endpoint. Spans come
	// back in a RespSpans frame; a node with no spans for the trace (or
	// no span ring at all) answers an empty set, not an error — missing
	// hops are the assembler's problem, not the transport's.
	OpTraceFetch Opcode = 0x0B // payload: trace id u64

	// OpGossip is the membership anti-entropy exchange: the payload is an
	// encoded cluster view (opaque to the transport; internal/cluster owns
	// the codec). The receiver merges it into its own view and answers
	// RespView — empty when the sender is already in sync, the merged
	// view otherwise. Gossip rides the prober's sweep, so one round trip
	// doubles as both the liveness probe and the state exchange.
	OpGossip Opcode = 0x0C // payload: encoded cluster view

	// OpMirror is a batch of local-only writes: apply them, in order, to
	// this node's engine, do NOT re-replicate. Replica mirror batches and
	// chunks of migration copies travel on it — routed writes at an
	// elastic member would fan out again server-side (view.R > 1),
	// turning every mirror into a replication storm.
	OpMirror Opcode = 0x0D // payload: flags u8 | [epoch u64] | count u32 | ops (as OpBatch)

	// OpGetLocal is the read twin of OpMirror: answer from this member's
	// own store, do NOT route by ring. Member-to-member reads (replica
	// fallbacks, reads chasing data that a migration has not landed yet)
	// travel on it because the sender has already decided which member
	// should hold the bytes. A routed OpGet would re-resolve ownership at
	// the receiver — and during a membership change the two ring views can
	// disagree, so each side forwards to the other in an unbounded cycle
	// that eats both servers' admission permits until every data call rides
	// a timeout.
	OpGetLocal Opcode = 0x0E // payload: key

	// OpMetricsFetch asks a node for a full snapshot of its metrics
	// registry — exact histogram bucket vectors and integer counters,
	// not float summaries (see obs.EncodeSnapshot for the layout). The
	// metrics federation pulls these over the data plane from whoever
	// the gossip view says is alive and merges them exactly, the same
	// collect-over-the-wire pattern OpTraceFetch set for spans. A node
	// serving without a registry answers an empty snapshot, not an
	// error: a fleet mixing instrumented and bare nodes still federates.
	OpMetricsFetch Opcode = 0x0F // payload: empty

	// OpEventsFetch asks a node for the tail of its structured cluster
	// event log (view commits, member suspect/down/dead, failovers,
	// hint replay/drop, migration, compaction — obs.EncodeEvents owns
	// the layout). Oldest events are shed under the frame limit like spans.
	OpEventsFetch Opcode = 0x10 // payload: empty
)

// Response opcodes.
const (
	RespValue   Opcode = 0x81 // payload: found u8 | value
	RespOK      Opcode = 0x82 // payload: empty
	RespEntries Opcode = 0x83 // payload: more u8 | count u32 | (klen u32|key|vlen u32|value)*
	RespResults Opcode = 0x84 // payload: errcode u8 | msglen u32 | msg | count u32 | (outcome u8|vlen u32|value)*
	// RespTask acks a task submission with the executor-local task id.
	RespTask Opcode = 0x86 // payload: task id u64
	// RespTaskStatus reports a task's completion state; a failed task's
	// error rides along through the shared error-code mapping.
	RespTaskStatus Opcode = 0x87 // payload: done u8 | errcode u8 | message
	// RespChunk carries one page of a shuffle partition (or result blob);
	// more marks a page cut short of the full payload for frame-size
	// reasons — the client advances its offset and fetches again.
	RespChunk Opcode = 0x88 // payload: more u8 | bytes
	// RespSpans carries a node's retained spans for one trace id (see
	// EncodeSpans for the layout).
	RespSpans Opcode = 0x89 // payload: count u32 | span*
	// RespView carries an encoded cluster view. It answers OpGossip
	// (empty payload = sender already in sync), and it answers any
	// epoch-stamped data-plane request whose epoch disagrees with the
	// server's: instead of serving against a routing table one of the two
	// sides has outgrown, the server hands back the fresh view and the
	// client re-routes. The client surfaces that as cluster.ErrWrongEpoch
	// after delivering the view to its OnView callback.
	RespView Opcode = 0x8A // payload: empty | encoded cluster view
	// RespMetrics carries one node's encoded registry snapshot
	// (obs.EncodeSnapshot), answering OpMetricsFetch.
	RespMetrics Opcode = 0x8B // payload: encoded registry snapshot
	// RespEvents carries a node's retained cluster events
	// (obs.EncodeEvents), answering OpEventsFetch.
	RespEvents Opcode = 0x8C // payload: encoded event list
	RespError  Opcode = 0xFF // payload: errcode u8 | message
)

// opInfo is everything the transport knows about one request opcode
// beyond its payload codec. Adding an opcode means adding its constant,
// a row here, a dispatch case on the server and a Client method built
// on exchange; names, metric series and response checks follow from the
// row.
type opInfo struct {
	name  string // span suffix and metric label ("" = unassigned byte)
	resp  Opcode // the one non-error response opcode a client accepts
	epoch bool   // routed data-plane op: clients stamp their view epoch
}

// opTable is indexed by request opcode; its length bounds the server's
// per-opcode counter arrays, so counting a request is one in-bounds
// array index.
var opTable = [...]opInfo{
	OpGet:          {"get", RespValue, true},
	OpPut:          {"put", RespOK, true},
	OpDelete:       {"delete", RespOK, true},
	OpScan:         {"scan", RespEntries, true},
	OpBatch:        {"batch", RespResults, true},
	OpPing:         {"ping", RespOK, false},
	OpTaskSubmit:   {"task-submit", RespTask, false},
	OpTaskStatus:   {"task-status", RespTaskStatus, false},
	OpShuffleFetch: {"shuffle-fetch", RespChunk, false},
	OpTraceFetch:   {"trace-fetch", RespSpans, false},
	OpGossip:       {"gossip", RespView, false},
	OpMirror:       {"mirror", RespOK, false},
	OpGetLocal:     {"get-local", RespValue, false},
	OpMetricsFetch: {"metrics-fetch", RespMetrics, false},
	OpEventsFetch:  {"events-fetch", RespEvents, false},
}

// opName names an opcode for spans, metric labels and error text. A
// request is named by its bare opcode, whatever extension flags it
// carries.
func opName(op Opcode) string {
	if op&0x80 == 0 {
		op &^= opFlagTraced | opFlagEpoch
	}
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(0x%02x)", byte(op))
}

// batchFlagTry marks an OpBatch for admission control (TryApply) rather
// than backpressure (Apply).
const batchFlagTry = 0x01

// opFlagTraced marks a request frame that carries trace context: the
// opcode byte has bit 0x40 set and a 16-byte big-endian extension —
// trace id u64 | parent span id u64 — sits between the frame header
// and the payload. The parent span id is the sender's own span for the
// call, which becomes the Parent of the span the receiver records;
// that per-hop id chain is what lets the assembler rebuild the request
// tree from independently collected rings. The flag is only valid on
// request opcodes (high bit clear) — responses are matched back to
// their request by frame id, so echoing the trace would be redundant,
// and reserving the bit to requests keeps RespError (0xFF) unambiguous.
// Untraced traffic is bit-identical to the pre-trace protocol; an old
// peer sent a traced frame rejects it as an unknown opcode (errCodeBad)
// rather than misreading the trace extension as payload.
const opFlagTraced Opcode = 0x40

// tracedExtLen is the byte length of the trace extension.
const tracedExtLen = 16

// opFlagEpoch marks a request frame that carries the sender's view
// epoch: bit 0x20 set on the opcode and an 8-byte big-endian epoch
// extension after the trace extension (when both flags are set the
// trace bytes come first). Edge clients stamp it on data-plane requests
// so a stale router is told — via RespView — rather than silently
// misrouted; frames without the flag (server-to-server internals, old
// peers) bypass the epoch check entirely.
const opFlagEpoch Opcode = 0x20

// epochExtLen is the byte length of the epoch extension.
const epochExtLen = 8

// AppendTracedFrame appends one request frame carrying trace context.
// A zero trace appends a plain frame — zero means "untraced" end to
// end; parent is the sender's span id for this call (0 = root).
func AppendTracedFrame(dst []byte, id uint64, op Opcode, trace, parent uint64, payload []byte) []byte {
	if trace == 0 {
		return AppendFrame(dst, id, op, payload)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameOverhead+tracedExtLen+len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(op|opFlagTraced))
	dst = binary.BigEndian.AppendUint64(dst, trace)
	dst = binary.BigEndian.AppendUint64(dst, parent)
	return append(dst, payload...)
}

// splitExt strips every request extension — trace context and view
// epoch — returning the bare opcode, the extension values (zero when
// absent) and the true payload (aliasing p). Response opcodes pass
// through untouched.
func splitExt(op Opcode, p []byte) (Opcode, uint64, uint64, uint64, []byte, error) {
	if op&0x80 != 0 || op&(opFlagTraced|opFlagEpoch) == 0 {
		return op, 0, 0, 0, p, nil
	}
	var trace, parent, epoch uint64
	if op&opFlagTraced != 0 {
		if len(p) < tracedExtLen {
			return op, 0, 0, 0, nil, ErrMalformed
		}
		trace = binary.BigEndian.Uint64(p)
		parent = binary.BigEndian.Uint64(p[8:])
		p = p[tracedExtLen:]
	}
	if op&opFlagEpoch != 0 {
		if len(p) < epochExtLen {
			return op, 0, 0, 0, nil, ErrMalformed
		}
		epoch = binary.BigEndian.Uint64(p)
		p = p[epochExtLen:]
	}
	return op &^ (opFlagTraced | opFlagEpoch), trace, parent, epoch, p, nil
}

// Error codes carried by RespError and RespResults frames.
const (
	errCodeNone       = 0x00
	errCodeOverload   = 0x01 // maps to cluster.ErrOverload
	errCodeClosed     = 0x02 // maps to cluster.ErrClosed
	errCodeBad        = 0x03 // malformed frame or payload
	errCodeInternal   = 0x04 // anything else; message carries detail
	errCodeWrongEpoch = 0x05 // maps to cluster.ErrWrongEpoch
)

// MirrorFlagMigration marks an OpMirror frame as a chunk of migration
// copies (a rebalance moving settled keys) rather than a live replica
// mirror batch. The receiver's dirty-key guard drops the migration copy
// of any key a fresher live write already touched — the copy is stale by
// definition — while live mirrors always apply and mark their keys dirty.
const MirrorFlagMigration = 0x01

// EncodeMirror appends an OpMirror payload: ops are puts and deletes, in
// the order they must land. A migration chunk carries the epoch it was
// planned under: the receiver rejects a chunk from an epoch it has not
// adopted (its guard is not armed yet — the copies would be dropped on
// the floor) or has already left behind, with cluster.ErrWrongEpoch
// telling the sender to retry after gossip converges.
func EncodeMirror(dst []byte, ops []cluster.Op, migration bool, epoch uint64) []byte {
	if migration {
		dst = append(dst, MirrorFlagMigration)
		dst = binary.BigEndian.AppendUint64(dst, epoch)
	} else {
		dst = append(dst, 0)
	}
	return appendOps(dst, ops)
}

// DecodeMirrorAppend parses an OpMirror payload, appending the decoded
// ops to dst (reusing its capacity); keys and values alias p.
func DecodeMirrorAppend(dst []cluster.Op, p []byte) (ops []cluster.Op, migration bool, epoch uint64, err error) {
	if len(p) < 1 {
		return nil, false, 0, ErrMalformed
	}
	migration = p[0]&MirrorFlagMigration != 0
	p = p[1:]
	if migration {
		if len(p) < 8 {
			return nil, false, 0, ErrMalformed
		}
		epoch = binary.BigEndian.Uint64(p)
		p = p[8:]
	}
	if ops, err = takeOps(dst, p); err != nil {
		return nil, false, 0, err
	}
	for i := range ops {
		if ops[i].Kind == cluster.OpGet {
			return nil, false, 0, ErrMalformed // a mirror carries writes only
		}
	}
	return ops, migration, epoch, nil
}

// encodedMirrorLen is the OpMirror payload size for ops.
func encodedMirrorLen(ops []cluster.Op, migration bool) int {
	n := 1 + encodedOpsLen(ops)
	if migration {
		n += 8
	}
	return n
}

const (
	// frameOverhead is the id + opcode bytes counted by the length prefix.
	frameOverhead = 9
	// DefaultMaxFrame bounds a frame's declared length: a corrupt or
	// hostile prefix cannot make a peer allocate unbounded memory.
	DefaultMaxFrame = 16 << 20
)

// Codec errors.
var (
	// ErrFrameTooLarge reports a length prefix beyond the configured cap.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrMalformed reports a structurally invalid frame or payload.
	ErrMalformed = errors.New("transport: malformed frame")
)

// AppendFrame appends one complete frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, id uint64, op Opcode, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameOverhead+len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(op))
	return append(dst, payload...)
}

// DecodeFrame parses the first frame in b. The returned payload aliases
// b. n is the total bytes consumed; io.ErrShortBuffer (with n = 0)
// reports that b does not yet hold a complete frame.
func DecodeFrame(b []byte, maxFrame int) (id uint64, op Opcode, payload []byte, n int, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(b) < 4 {
		return 0, 0, nil, 0, io.ErrShortBuffer
	}
	length := binary.BigEndian.Uint32(b)
	if length < frameOverhead {
		return 0, 0, nil, 0, ErrMalformed
	}
	if int64(length) > int64(maxFrame) {
		return 0, 0, nil, 0, ErrFrameTooLarge
	}
	if len(b) < 4+int(length) {
		return 0, 0, nil, 0, io.ErrShortBuffer
	}
	id = binary.BigEndian.Uint64(b[4:])
	op = Opcode(b[12])
	payload = b[13 : 4+length]
	return id, op, payload, 4 + int(length), nil
}

// readPooledFrame reads one frame from r into a pooled payload buffer.
// The returned frame is owned by the caller (release with putFrame once
// nothing aliases its bytes). On a size-limit or framing error the id
// and opcode are still returned when the stream yielded them, so a
// server can address its diagnostic error frame to the offending
// request.
func readPooledFrame(r io.Reader, maxFrame int) (id uint64, op Opcode, f *frame, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length >= frameOverhead {
		if _, err := io.ReadFull(r, hdr[4:]); err != nil {
			return 0, 0, nil, err
		}
		id = binary.BigEndian.Uint64(hdr[4:12])
		op = Opcode(hdr[12])
	}
	if length < frameOverhead {
		return 0, 0, nil, ErrMalformed
	}
	if int64(length) > int64(maxFrame) {
		return id, op, nil, ErrFrameTooLarge
	}
	f = getFrame(int(length) - frameOverhead)
	if _, err := io.ReadFull(r, f.b); err != nil {
		putFrame(f)
		return 0, 0, nil, err
	}
	return id, op, f, nil
}

// readFrame reads one frame from r, returning the payload in a fresh
// allocation the caller owns outright — the non-pooled convenience form
// of readPooledFrame for tests and cold paths.
func readFrame(r io.Reader, maxFrame int) (id uint64, op Opcode, payload []byte, err error) {
	id, op, f, err := readPooledFrame(r, maxFrame)
	if err != nil {
		return id, op, nil, err
	}
	payload = append([]byte(nil), f.b...)
	putFrame(f)
	return id, op, payload, nil
}

// ---- in-place frame builders ---------------------------------------------
//
// The hot path builds frames directly inside a pooled buffer instead of
// encoding a payload and copying it through AppendFrame: begin the
// header, append the payload codec output, finish the length prefix.

// beginResponse appends a response frame header (zero length prefix,
// to be stamped by finishFrame).
func beginResponse(b []byte, id uint64, op Opcode) []byte {
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint64(b, id)
	return append(b, byte(op))
}

// beginRequest appends a request frame header with a placeholder id
// (stamped later by patchFrameID, once the connection assigns one) and
// the optional trace extension.
func beginRequest(b []byte, op Opcode, trace, parent uint64) []byte {
	return beginRequestExt(b, op, trace, parent, 0)
}

// beginRequestExt is beginRequest carrying an optional view epoch
// (zero = unstamped): the trace extension first, then the epoch.
func beginRequestExt(b []byte, op Opcode, trace, parent, epoch uint64) []byte {
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if trace == 0 && epoch == 0 {
		return append(b, byte(op))
	}
	flags := Opcode(0)
	if trace != 0 {
		flags |= opFlagTraced
	}
	if epoch != 0 {
		flags |= opFlagEpoch
	}
	b = append(b, byte(op|flags))
	if trace != 0 {
		b = binary.BigEndian.AppendUint64(b, trace)
		b = binary.BigEndian.AppendUint64(b, parent)
	}
	if epoch != 0 {
		b = binary.BigEndian.AppendUint64(b, epoch)
	}
	return b
}

// finishFrame stamps the length prefix of a frame begun with
// beginResponse or beginRequest. b must hold exactly one frame.
func finishFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// patchFrameID stamps the frame id of a completed frame.
func patchFrameID(b []byte, id uint64) {
	binary.BigEndian.PutUint64(b[4:12], id)
}

// ---- payload codecs ------------------------------------------------------

// u32 field helpers: every variable-length field is a u32 length followed
// by that many bytes.

func appendBytes32(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func takeBytes32(p []byte) (field, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(p)
	if uint64(n) > uint64(len(p)-4) {
		return nil, nil, ErrMalformed
	}
	return p[4 : 4+n], p[4+n:], nil
}

// EncodePut appends an OpPut payload.
func EncodePut(dst, key, value []byte) []byte {
	return append(appendBytes32(dst, key), value...)
}

// DecodePut splits an OpPut payload into key and value (aliasing p).
func DecodePut(p []byte) (key, value []byte, err error) {
	key, value, err = takeBytes32(p)
	return key, value, err
}

// EncodeScan appends an OpScan payload. A negative limit travels as 0
// (the local Scan's "return nothing") rather than wrapping into a
// near-2^32 full-keyspace request.
func EncodeScan(dst []byte, start []byte, limit int) []byte {
	if limit < 0 {
		limit = 0
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(limit))
	return append(dst, start...)
}

// DecodeScan splits an OpScan payload (start aliases p).
func DecodeScan(p []byte) (start []byte, limit int, err error) {
	if len(p) < 4 {
		return nil, 0, ErrMalformed
	}
	return p[4:], int(binary.BigEndian.Uint32(p)), nil
}

// EncodeBatch appends an OpBatch payload: the batched ops plus the
// admission flag (try selects TryApply on the server).
func EncodeBatch(dst []byte, ops []cluster.Op, try bool) []byte {
	var flags byte
	if try {
		flags |= batchFlagTry
	}
	return appendOps(append(dst, flags), ops)
}

// appendOps appends the op list OpBatch and OpMirror share:
// count u32 | (kind u8 | klen u32 | key | [vlen u32 | value, puts only])*.
func appendOps(dst []byte, ops []cluster.Op) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ops)))
	for _, op := range ops {
		dst = append(dst, byte(op.Kind))
		dst = appendBytes32(dst, op.Key)
		if op.Kind == cluster.OpPut {
			dst = appendBytes32(dst, op.Value)
		}
	}
	return dst
}

// DecodeBatch parses an OpBatch payload; keys and values alias p.
func DecodeBatch(p []byte) (ops []cluster.Op, try bool, err error) {
	return DecodeBatchAppend(nil, p)
}

// DecodeBatchAppend parses an OpBatch payload, appending the decoded ops
// to dst (reusing its capacity) — the allocation-free form of
// DecodeBatch for callers that hold a pooled op slice. Keys and values
// alias p.
func DecodeBatchAppend(dst []cluster.Op, p []byte) (ops []cluster.Op, try bool, err error) {
	if len(p) < 1 {
		return nil, false, ErrMalformed
	}
	ops, err = takeOps(dst, p[1:])
	return ops, p[0]&batchFlagTry != 0, err
}

// takeOps parses an appendOps list that must fill p exactly, appending
// to dst; keys and values alias p.
func takeOps(dst []cluster.Op, p []byte) (ops []cluster.Op, err error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	// Each op is at least 5 bytes (kind + key length), so a count that
	// exceeds the remaining bytes is malformed — reject before
	// allocating for it.
	if uint64(count)*5 > uint64(len(p)) {
		return nil, ErrMalformed
	}
	ops = dst
	if cap(ops) == 0 {
		ops = make([]cluster.Op, 0, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return nil, ErrMalformed
		}
		kind := cluster.OpKind(p[0])
		if kind != cluster.OpGet && kind != cluster.OpPut && kind != cluster.OpDelete {
			return nil, ErrMalformed
		}
		var key, value []byte
		key, p, err = takeBytes32(p[1:])
		if err != nil {
			return nil, err
		}
		if kind == cluster.OpPut {
			value, p, err = takeBytes32(p)
			if err != nil {
				return nil, err
			}
		}
		ops = append(ops, cluster.Op{Kind: kind, Key: key, Value: value})
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return ops, nil
}

// EncodeValue appends a RespValue payload.
func EncodeValue(dst, value []byte, found bool) []byte {
	if found {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, value...)
}

// DecodeValue splits a RespValue payload (value aliases p).
func DecodeValue(p []byte) (value []byte, found bool, err error) {
	if len(p) < 1 {
		return nil, false, ErrMalformed
	}
	if p[0] == 0 {
		return nil, false, nil
	}
	return p[1:], true, nil
}

// EncodeEntries appends a RespEntries payload. more marks a page the
// server cut short of the requested limit for frame-size reasons: the
// range continues past the last entry and the client must paginate, or
// a k-way merge over partial ranges would see holes.
func EncodeEntries(dst []byte, entries []engine.Entry, more bool) []byte {
	if more {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = appendBytes32(dst, e.Key)
		dst = appendBytes32(dst, e.Value)
	}
	return dst
}

// DecodeEntries parses a RespEntries payload; keys and values alias p.
func DecodeEntries(p []byte) ([]engine.Entry, bool, error) {
	return DecodeEntriesAppend(nil, p)
}

// DecodeEntriesAppend parses a RespEntries payload, appending the
// entries to dst (growing it at most once) — the form for callers that
// decode a page straight into their own slice. Keys and values alias p.
// On error it returns nil and leaves no aliasing entry behind in dst's
// spare capacity.
func DecodeEntriesAppend(dst []engine.Entry, p []byte) ([]engine.Entry, bool, error) {
	if len(p) < 5 {
		return nil, false, ErrMalformed
	}
	more := p[0] != 0
	count := binary.BigEndian.Uint32(p[1:])
	p = p[5:]
	if uint64(count)*8 > uint64(len(p)) {
		return nil, false, ErrMalformed
	}
	entries := slices.Grow(dst, int(count))
	fail := func(err error) ([]engine.Entry, bool, error) {
		clear(entries[len(dst):])
		return nil, false, err
	}
	for i := uint32(0); i < count; i++ {
		var key, value []byte
		var err error
		key, p, err = takeBytes32(p)
		if err != nil {
			return fail(err)
		}
		value, p, err = takeBytes32(p)
		if err != nil {
			return fail(err)
		}
		entries = append(entries, engine.Entry{Key: key, Value: value})
	}
	if len(p) != 0 {
		return fail(ErrMalformed)
	}
	return entries, more, nil
}

// Bits of a RespResults per-result outcome byte.
const (
	resultFound   = 0x01 // OpResult.Found
	resultApplied = 0x02 // OpResult.Applied
)

// EncodeResults appends a RespResults payload. A non-nil err rides along
// as its code and message so partial results (TryApply under overload)
// and the failure detail both survive the trip; each result's outcome
// byte says whether the op was applied at all, which is what lets the
// caller mirror exactly the applied part of a partially shed batch.
func EncodeResults(dst []byte, res []cluster.OpResult, err error) []byte {
	code, msg := errorCode(err)
	dst = append(dst, code)
	dst = appendBytes32(dst, []byte(msg))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(res)))
	for _, r := range res {
		var outcome byte
		if r.Found {
			outcome |= resultFound
		}
		if r.Applied {
			outcome |= resultApplied
		}
		dst = append(dst, outcome)
		dst = appendBytes32(dst, r.Value)
	}
	return dst
}

// DecodeResults parses a RespResults payload; values alias p. The
// returned error is the remote execution error (e.g. ErrOverload), not a
// decode failure — decode failures come back in decodeErr.
func DecodeResults(p []byte) (res []cluster.OpResult, err, decodeErr error) {
	if len(p) < 1 {
		return nil, nil, ErrMalformed
	}
	code := p[0]
	msg, p, decodeErr := takeBytes32(p[1:])
	if decodeErr != nil {
		return nil, nil, decodeErr
	}
	err = codeError(code, string(msg))
	if len(p) < 4 {
		return nil, nil, ErrMalformed
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint64(count)*5 > uint64(len(p)) {
		return nil, nil, ErrMalformed
	}
	res = make([]cluster.OpResult, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return nil, nil, ErrMalformed
		}
		found, applied := p[0]&resultFound != 0, p[0]&resultApplied != 0
		var value []byte
		value, p, decodeErr = takeBytes32(p[1:])
		if decodeErr != nil {
			return nil, nil, decodeErr
		}
		if !found {
			value = nil
		}
		res = append(res, cluster.OpResult{Value: value, Found: found, Applied: applied})
	}
	if len(p) != 0 {
		return nil, nil, ErrMalformed
	}
	return res, err, nil
}

// EncodeError appends a RespError payload for err.
func EncodeError(dst []byte, err error) []byte {
	code, msg := errorCode(err)
	dst = append(dst, code)
	return append(dst, msg...)
}

// DecodeError parses a RespError payload into the error it carries.
func DecodeError(p []byte) (error, error) {
	if len(p) < 1 {
		return nil, ErrMalformed
	}
	return codeError(p[0], string(p[1:])), nil
}

// EncodeTaskID appends an 8-byte id (the OpTaskStatus, RespTask and
// OpTraceFetch payloads share the shape).
func EncodeTaskID(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

// DecodeTaskID parses an 8-byte id payload.
func DecodeTaskID(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(p), nil
}

// ---- span codec (RespSpans) ----------------------------------------------
//
// One span:
//
//	trace u64 | id u64 | parent u64 | start unixnano i64 | dur i64 |
//	bytes u32 | name u16+b | node u16+b | peer u16+b | err u16+b |
//	phase count u8 | (name u8+b | dur i64)*
//
// Trace collection is a cold path — allocations here don't matter, and
// decoded spans own their strings outright.

func appendBytes16(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func takeBytes16(p []byte) (field string, rest []byte, err error) {
	if len(p) < 2 {
		return "", nil, ErrMalformed
	}
	n := binary.BigEndian.Uint16(p)
	if int(n) > len(p)-2 {
		return "", nil, ErrMalformed
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// EncodeSpans appends a RespSpans payload.
func EncodeSpans(dst []byte, spans []obs.Span) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(spans)))
	for _, s := range spans {
		dst = binary.BigEndian.AppendUint64(dst, s.Trace)
		dst = binary.BigEndian.AppendUint64(dst, s.ID)
		dst = binary.BigEndian.AppendUint64(dst, s.Parent)
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Start.UnixNano()))
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Dur))
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.Bytes))
		dst = appendBytes16(dst, s.Name)
		dst = appendBytes16(dst, s.Node)
		dst = appendBytes16(dst, s.Peer)
		dst = appendBytes16(dst, s.Err)
		phases := s.Phases
		if len(phases) > 0xFF {
			phases = phases[:0xFF]
		}
		dst = append(dst, byte(len(phases)))
		for _, ph := range phases {
			name := ph.Name
			if len(name) > 0xFF {
				name = name[:0xFF]
			}
			dst = append(dst, byte(len(name)))
			dst = append(dst, name...)
			dst = binary.BigEndian.AppendUint64(dst, uint64(ph.Dur))
		}
	}
	return dst
}

// spanFixedLen is the fixed (pre-string) portion of one encoded span.
const spanFixedLen = 8*5 + 4

// DecodeSpans parses a RespSpans payload. The returned spans own their
// memory (nothing aliases p).
func DecodeSpans(p []byte) ([]obs.Span, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint64(count)*(spanFixedLen+9) > uint64(len(p)) {
		return nil, ErrMalformed
	}
	spans := make([]obs.Span, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < spanFixedLen {
			return nil, ErrMalformed
		}
		var s obs.Span
		s.Trace = binary.BigEndian.Uint64(p)
		s.ID = binary.BigEndian.Uint64(p[8:])
		s.Parent = binary.BigEndian.Uint64(p[16:])
		s.Start = time.Unix(0, int64(binary.BigEndian.Uint64(p[24:])))
		s.Dur = time.Duration(binary.BigEndian.Uint64(p[32:]))
		s.Bytes = int(binary.BigEndian.Uint32(p[40:]))
		p = p[spanFixedLen:]
		var err error
		if s.Name, p, err = takeBytes16(p); err != nil {
			return nil, err
		}
		if s.Node, p, err = takeBytes16(p); err != nil {
			return nil, err
		}
		if s.Peer, p, err = takeBytes16(p); err != nil {
			return nil, err
		}
		if s.Err, p, err = takeBytes16(p); err != nil {
			return nil, err
		}
		if len(p) < 1 {
			return nil, ErrMalformed
		}
		nphase := int(p[0])
		p = p[1:]
		if nphase > 0 {
			s.Phases = make([]obs.Phase, 0, nphase)
			for j := 0; j < nphase; j++ {
				if len(p) < 1 {
					return nil, ErrMalformed
				}
				nameLen := int(p[0])
				if len(p) < 1+nameLen+8 {
					return nil, ErrMalformed
				}
				s.Phases = append(s.Phases, obs.Phase{
					Name: string(p[1 : 1+nameLen]),
					Dur:  time.Duration(binary.BigEndian.Uint64(p[1+nameLen:])),
				})
				p = p[1+nameLen+8:]
			}
		}
		spans = append(spans, s)
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return spans, nil
}

// EncodeShuffleFetch appends an OpShuffleFetch payload.
func EncodeShuffleFetch(dst []byte, task uint64, part, offset uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, task)
	dst = binary.BigEndian.AppendUint32(dst, part)
	return binary.BigEndian.AppendUint32(dst, offset)
}

// DecodeShuffleFetch parses an OpShuffleFetch payload.
func DecodeShuffleFetch(p []byte) (task uint64, part, offset uint32, err error) {
	if len(p) != 16 {
		return 0, 0, 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(p), binary.BigEndian.Uint32(p[8:]),
		binary.BigEndian.Uint32(p[12:]), nil
}

// EncodeTaskStatus appends a RespTaskStatus payload. A failed task's
// error travels through the shared code mapping, so the cluster
// sentinels survive errors.Is and everything else keeps its message.
func EncodeTaskStatus(dst []byte, done bool, taskErr error) []byte {
	if done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	code, msg := errorCode(taskErr)
	dst = append(dst, code)
	return append(dst, msg...)
}

// DecodeTaskStatus parses a RespTaskStatus payload. taskErr is the
// remote task's execution error, not a decode failure.
func DecodeTaskStatus(p []byte) (done bool, taskErr, decodeErr error) {
	if len(p) < 2 {
		return false, nil, ErrMalformed
	}
	return p[0] != 0, codeError(p[1], string(p[2:])), nil
}

// EncodeChunk appends a RespChunk payload.
func EncodeChunk(dst []byte, data []byte, more bool) []byte {
	if more {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, data...)
}

// DecodeChunk splits a RespChunk payload (data aliases p).
func DecodeChunk(p []byte) (data []byte, more bool, err error) {
	if len(p) < 1 {
		return nil, false, ErrMalformed
	}
	return p[1:], p[0] != 0, nil
}

// ---- encoded-size helpers ------------------------------------------------
//
// Exact payload sizes, so pooled frame buffers are requested at the
// size class they will actually fill — over-requesting strands small
// frames in big classes, under-requesting re-allocates mid-append.

// encodedBatchLen is the payload size EncodeBatch will produce for ops.
func encodedBatchLen(ops []cluster.Op) int { return 1 + encodedOpsLen(ops) }

// encodedOpsLen is the size appendOps will produce for ops.
func encodedOpsLen(ops []cluster.Op) int {
	n := 4
	for i := range ops {
		n += 5 + len(ops[i].Key)
		if ops[i].Kind == cluster.OpPut {
			n += 4 + len(ops[i].Value)
		}
	}
	return n
}

// encodedResultsLen is the payload size EncodeResults will produce.
// msg is the error message EncodeResults will embed (errorCode's msg for
// the same error value).
func encodedResultsLen(res []cluster.OpResult, msg string) int {
	n := 1 + 4 + len(msg) + 4
	for i := range res {
		n += 5 + len(res[i].Value)
	}
	return n
}

// encodedEntriesLen is the payload size EncodeEntries will produce.
func encodedEntriesLen(entries []engine.Entry) int {
	n := 5
	for i := range entries {
		n += 8 + len(entries[i].Key) + len(entries[i].Value)
	}
	return n
}

// errorCode maps an error to its wire code. The two cluster sentinels
// travel as codes so errors.Is works across the process boundary;
// everything else is errCodeInternal with the message as detail.
func errorCode(err error) (byte, string) {
	switch {
	case err == nil:
		return errCodeNone, ""
	case errors.Is(err, cluster.ErrOverload):
		return errCodeOverload, ""
	case errors.Is(err, cluster.ErrClosed):
		return errCodeClosed, ""
	case errors.Is(err, cluster.ErrWrongEpoch):
		return errCodeWrongEpoch, ""
	case errors.Is(err, ErrMalformed), errors.Is(err, ErrFrameTooLarge):
		return errCodeBad, err.Error()
	default:
		return errCodeInternal, err.Error()
	}
}

// codeError is the inverse of errorCode.
func codeError(code byte, msg string) error {
	switch code {
	case errCodeNone:
		return nil
	case errCodeOverload:
		return cluster.ErrOverload
	case errCodeClosed:
		return cluster.ErrClosed
	case errCodeWrongEpoch:
		return cluster.ErrWrongEpoch
	case errCodeBad:
		if msg == "" {
			return ErrMalformed
		}
		return fmt.Errorf("%w: %s", ErrMalformed, msg)
	default:
		if msg == "" {
			msg = "internal error"
		}
		return fmt.Errorf("transport: remote: %s", msg)
	}
}
