// Package engine defines the pluggable storage-engine layer: the
// interface cluster nodes and the Cloud-OLTP workloads program against,
// a registry of backends, and the options that select compaction policy
// and block-cache size. The default backend is the internal/kvstore LSM
// tree (the paper's HBase stand-in); any later backend — on-disk
// SSTables, a hash engine, a remote shard — plugs in by registering an
// Opener, with engine_test.go's conformance suite defining the contract.
package engine

import (
	"fmt"
	"sort"
	"sync"

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

// Options selects and configures a backend.
type Options struct {
	// Backend names the registered engine ("" selects "lsm").
	Backend string
	// Compaction selects the LSM run-folding policy: "", "size-tiered"
	// or "leveled".
	Compaction string
	// BlockCacheBytes sizes the run-read block cache (0 = backend
	// default, negative disables).
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

// Opener constructs an engine from options.
type Opener func(Options) (Engine, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Opener{}
)

// Register adds a backend under name, replacing any previous entry.
func Register(name string, open Opener) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = open
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open constructs the engine Options selects.
func Open(opts Options) (Engine, error) {
	name := opts.Backend
	if name == "" {
		name = "lsm"
	}
	regMu.RLock()
	open := registry[name]
	regMu.RUnlock()
	if open == nil {
		return nil, fmt.Errorf("engine: unknown backend %q (have %v)", name, Backends())
	}
	return open(opts)
}

// Validate reports whether Options selects a constructible engine,
// without building one.
func Validate(opts Options) error {
	e, err := Open(opts)
	if err != nil {
		return err
	}
	e.Close()
	return nil
}

func init() {
	Register("lsm", openLSM)
}

// LevelSizer is the optional capability of engines that can report
// per-level on-disk bytes (the LSM backend promotes it straight from
// *kvstore.Store). Metrics scrapes type-assert for it; engines without
// levels simply don't implement it.
type LevelSizer interface {
	LevelBytes() []uint64
}

// lsmEngine adapts *kvstore.Store to Engine (the method set matches
// except for Snapshot's concrete return type and Close).
type lsmEngine struct {
	*kvstore.Store
}

var _ LevelSizer = lsmEngine{}

func (e lsmEngine) Snapshot() Snapshot { return e.Store.Snapshot() }
func (e lsmEngine) Close()             {}

func openLSM(o Options) (Engine, error) {
	pol, ok := kvstore.ParseCompaction(o.Compaction)
	if !ok {
		return nil, fmt.Errorf("engine: unknown compaction policy %q (want size-tiered or leveled)", o.Compaction)
	}
	return lsmEngine{kvstore.Open(kvstore.Options{
		MemtableBytes:   o.MemtableBytes,
		BloomBitsPerKey: o.BloomBitsPerKey,
		MaxRuns:         o.MaxRuns,
		Compaction:      pol,
		BlockCacheBytes: o.BlockCacheBytes,
		CPU:             o.CPU,
	})}, nil
}
