// Package engine is the storage-engine seam: the Engine and Snapshot
// interfaces cluster nodes and the Cloud-OLTP workloads program against,
// and Open, which builds the one backend — the internal/kvstore LSM tree
// with size-tiered compaction (the paper's HBase stand-in). A later
// backend, such as on-disk SSTables, implements the same interfaces, with
// conformance_test.go defining the contract.
package engine

import (
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// Entry, Stats and BatchOp are shared with the LSM backend so existing
// callers keep their types.
type (
	// Entry is one key-value pair as returned by Get/Scan.
	Entry = kvstore.Entry
	// Stats counts engine activity.
	Stats = kvstore.Stats
	// BatchOp is one write inside a WriteBatch.
	BatchOp = kvstore.BatchOp
)

// Engine is a single-node storage engine. Implementations must be safe
// for concurrent use.
//
// The read contract: bytes a read returns — a Get value, a Scan entry's
// key and value — may alias the engine's stored records. Callers treat
// them as read-only and may keep them indefinitely; an engine therefore
// never edits a published record in place, and copies what it is handed
// on the way in (Put, Delete, WriteBatch), so callers may reuse their
// buffers once a write returns.
type Engine interface {
	// Get returns the value for key.
	Get(key []byte) ([]byte, bool)
	// Put inserts or overwrites a key.
	Put(key, value []byte)
	// Delete removes a key.
	Delete(key []byte)
	// WriteBatch applies a group of writes as one unit (group commit).
	WriteBatch(ops []BatchOp)
	// Scan returns up to limit live entries with key >= start, in key
	// order, from one point-in-time view: never half a WriteBatch or a
	// write that lands mid-iteration.
	Scan(start []byte, limit int) []Entry
	// AppendScan is Scan appending into dst (reusing its capacity) —
	// the allocation-free form for callers holding a scratch buffer. A
	// caller that pools dst clears its entries before recycling it: they
	// alias stored records, and a pooled header would keep them reachable.
	AppendScan(dst []Entry, start []byte, limit int) []Entry
	// Snapshot pins a consistent point-in-time read view.
	Snapshot() Snapshot
	// Stats snapshots the activity counters.
	Stats() Stats
	// Close releases engine resources; the engine must not be used after.
	Close()
}

// Snapshot is a consistent read-only view of an engine at one point in
// time: reads resolve exactly the writes that completed before the
// snapshot was taken. Its reads follow Engine's read contract: the
// returned bytes may alias stored records and stay valid after Release.
type Snapshot interface {
	Get(key []byte) ([]byte, bool)
	Scan(start []byte, limit int) []Entry
	// AppendScan is Scan appending into dst (reusing its capacity).
	AppendScan(dst []Entry, start []byte, limit int) []Entry
	// Release drops the snapshot's pin.
	Release()
}

// Options configures the engine. Zero fields take the kvstore defaults.
type Options struct {
	// BlockCacheBytes sizes the run-read block cache (0 = default,
	// negative disables).
	BlockCacheBytes int
	// MemtableBytes is the write-buffer flush threshold.
	MemtableBytes int
	// BloomBitsPerKey sizes the per-run Bloom filters.
	BloomBitsPerKey int
	// MaxRuns triggers compaction when exceeded.
	MaxRuns int
	// CPU attaches the engine to a characterization context (may be nil).
	CPU *sim.CPU
}

// Open builds the LSM engine opts configures. The error is always nil
// today; it stays in the signature for a backend whose construction can
// fail, such as one that opens files.
func Open(opts Options) (Engine, error) {
	return lsmEngine{kvstore.Open(kvstore.Options{
		MemtableBytes:   opts.MemtableBytes,
		BloomBitsPerKey: opts.BloomBitsPerKey,
		MaxRuns:         opts.MaxRuns,
		BlockCacheBytes: opts.BlockCacheBytes,
		CPU:             opts.CPU,
	})}, nil
}

// lsmEngine adapts *kvstore.Store to Engine (the method set matches
// except for Snapshot's concrete return type and Close).
type lsmEngine struct {
	*kvstore.Store
}

func (e lsmEngine) Snapshot() Snapshot { return e.Store.Snapshot() }
func (e lsmEngine) Close()             {}
