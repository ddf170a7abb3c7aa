// Package kvstore is a log-structured merge-tree key-value store — the
// repository's substitute for the paper's HBase 0.94.5 stack serving the
// "Cloud OLTP" workloads (DESIGN.md §1). Writes append to a WAL and a
// lock-free skiplist memtable; full memtables flush to immutable sorted
// runs with Bloom filters; reads pin an immutable version of the run set
// with one atomic load and proceed without any store-wide lock while
// flush and compaction install new versions behind them. The run read
// path goes through a sharded-LRU block cache, and size-tiered
// compaction folds the run set into one run when it grows past MaxRuns
// (compaction.go). These are the structures whose access patterns define
// the Read/Write/Scan characterization in the paper's Figures 2-6.
package kvstore

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// bloomProbeOff derives a stable pseudo-random offset for the modeled
// Bloom-filter bit-array access of a key within a run's region.
func bloomProbeOff(key []byte, size uint64) uint64 {
	h1, _ := bloomHashes(key)
	if size == 0 {
		return 0
	}
	return h1 % size
}

// Options configures a Store.
type Options struct {
	// MemtableBytes is the flush threshold (default 1 MiB).
	MemtableBytes int
	// BloomBitsPerKey sizes the per-run Bloom filters (default 10; 0 keeps
	// the default, negative disables the filters — used by the ablation).
	BloomBitsPerKey int
	// MaxRuns bounds the run count: one more triggers compaction
	// (default 6).
	MaxRuns int
	// BlockCacheBytes sizes the sharded-LRU block cache on the run read
	// path (default 4 MiB; negative disables the cache).
	BlockCacheBytes int
	// CPU attaches the store to a characterization context (may be nil).
	CPU *sim.CPU
}

func (o *Options) normalize() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 1 << 20
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 6
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 4 << 20
	}
}

// Stats counts store activity.
type Stats struct {
	Puts, Gets, Deletes, Scans uint64
	ScannedEntries             uint64
	Flushes, Compactions       uint64
	BloomNegative, RunsProbed  uint64
	WALBytes                   uint64
	// BlockCacheHits and BlockCacheMisses count run-block accesses
	// through the block cache (zero when the cache is disabled).
	BlockCacheHits, BlockCacheMisses uint64
	// RunBytes is a gauge, not a counter: the logical bytes the current
	// immutable runs hold (the memtable excluded).
	RunBytes uint64
}

// counters is the internal, atomically-updated form of Stats — the read
// path increments them without holding any lock.
type counters struct {
	puts, gets, deletes, scans atomic.Uint64
	scannedEntries             atomic.Uint64
	flushes, compactions       atomic.Uint64
	bloomNegative, runsProbed  atomic.Uint64
	walBytes                   atomic.Uint64
	cacheHits, cacheMisses     atomic.Uint64
}

// Store is the LSM store. It is safe for concurrent use: writers
// serialize on writeMu, while readers are lock-free — they pin the
// current version with one atomic load and never block on writes,
// flushes, or compactions.
type Store struct {
	opts    Options
	writeMu sync.Mutex // serializes Put/Delete/WriteBatch/Flush/compaction
	cur     atomic.Pointer[version]
	seq     atomic.Uint64 // global write sequence (record stamps)
	// visible is the readers' horizon: it advances to seq only after a
	// write or a whole WriteBatch has fully applied, so lock-free
	// readers never observe half a batch (records above the horizon are
	// skipped by the memtable's version chains).
	visible atomic.Uint64
	ct      counters
	cache   *blockCache

	cpu         *sim.CPU
	walCode     *sim.CodeRegion
	memCode     *sim.CodeRegion
	readCode    *sim.CodeRegion
	scanCode    *sim.CodeRegion
	walRegion   sim.DataRegion
	memRegion   sim.DataRegion
	cacheRegion sim.DataRegion
	rs          atomic.Uint64
}

// Open creates an empty store.
func Open(opts Options) *Store {
	opts.normalize()
	cpu := opts.CPU
	s := &Store{
		opts:      opts,
		cache:     newBlockCache(opts.BlockCacheBytes),
		cpu:       cpu,
		walCode:   cpu.NewCodeRegion("kvstore.wal", 128<<10),
		memCode:   cpu.NewCodeRegion("kvstore.memtable", 192<<10),
		readCode:  cpu.NewCodeRegion("kvstore.read", 256<<10),
		scanCode:  cpu.NewCodeRegion("kvstore.scan", 160<<10),
		walRegion: cpu.Alloc("kvstore.walbuf", 8<<20),
		memRegion: cpu.Alloc("kvstore.membuf", uint64(opts.MemtableBytes)*2+4096),
	}
	if s.cache != nil {
		s.cacheRegion = cpu.Alloc("kvstore.blockcache", uint64(opts.BlockCacheBytes))
	}
	s.cur.Store(newVersion())
	s.rs.Store(0x6c62272e07bb0142)
	return s
}

// nextRand is a contention-free pseudo-random step shared by read and
// write paths: a plain atomic counter advanced by the golden-ratio
// increment, finalized splitmix64-style. Unlike a CAS-retry xorshift it
// never spins — every caller succeeds in one fetch-add.
func (s *Store) nextRand() uint64 {
	x := s.rs.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// codeOff picks a pseudo-random window offset; uninstrumented stores
// skip the draw so the hot read path stays free of shared-counter
// traffic.
func (s *Store) codeOff(r *sim.CodeRegion) uint64 {
	if s.cpu == nil {
		return 0
	}
	return s.nextRand() % r.Size()
}

// Put inserts or overwrites a key.
func (s *Store) Put(key, value []byte) {
	s.write(key, value, false)
}

// Delete removes a key (tombstone write).
func (s *Store) Delete(key []byte) {
	s.write(key, nil, true)
}

// BatchOp is one write inside a WriteBatch.
type BatchOp struct {
	Key   []byte
	Value []byte // ignored when Delete is set
	// Delete writes a tombstone instead of a value.
	Delete bool
}

// WriteBatch applies a group of writes under one writer-lock
// acquisition — the group-commit fast path the cluster's shard workers
// ride on (cluster.Node coalesces replica-free write runs into it).
// The batch is atomic to readers: the visibility horizon advances only
// after every record is in place, so a concurrent Get or Scan sees all
// of the batch or none of it.
func (s *Store) WriteBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	for _, op := range ops {
		if op.Delete {
			s.applyLocked(op.Key, nil, true)
		} else {
			s.applyLocked(op.Key, op.Value, false)
		}
	}
	s.visible.Store(s.seq.Load())
	s.maybeFlushLocked()
}

func (s *Store) write(key, value []byte, tomb bool) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.applyLocked(key, value, tomb)
	s.visible.Store(s.seq.Load())
	s.maybeFlushLocked()
}

// applyLocked performs one write against the current version's active
// memtable. It never flushes — a flush mid-batch would freeze records
// that are not yet visible (and drop the older chain versions readers
// below the horizon still need); callers flush after advancing the
// horizon. Caller holds writeMu.
//
// The stored copies are clipped to their length: reads hand them out
// without copying, and a reader's append must reallocate rather than
// write into spare capacity other readers share.
func (s *Store) applyLocked(key, value []byte, tomb bool) {
	k := slices.Clip(append([]byte(nil), key...))
	v := slices.Clip(append([]byte(nil), value...))
	if tomb {
		s.ct.deletes.Add(1)
	} else {
		s.ct.puts.Add(1)
	}
	// RPC decode + WAL append. The generous integer budget models the
	// HBase client/server request path (protobuf decode, region lookup,
	// MVCC bookkeeping), which dominates instructions per operation.
	rec := len(k) + len(v) + 12
	s.cpu.Code(s.walCode, s.codeOff(s.walCode), 640)
	s.cpu.StoreR(s.walRegion, s.ct.walBytes.Load()%s.walRegion.Size, rec)
	s.cpu.IntOps(420)
	s.cpu.Branches(95)
	s.cpu.FPOps(4)
	s.ct.walBytes.Add(uint64(rec))
	// Memtable insert. The upper skiplist levels stay cache-resident; only
	// the final descent touches cold nodes, so the scattered-probe charge
	// is capped.
	ver := s.cur.Load()
	probes := ver.mem.put(k, v, tomb, s.seq.Add(1))
	if probes > 8 {
		probes = 8
	}
	s.cpu.Code(s.memCode, s.codeOff(s.memCode), 640)
	s.chargeProbes(s.memRegion, probes, len(k)+8)
	s.cpu.IntOps(180)
	s.cpu.Branches(40)
	s.cpu.StoreR(s.memRegion, uint64(ver.mem.bytes())%s.memRegion.Size, len(k)+len(v)+16)
}

// maybeFlushLocked flushes a full memtable. Caller holds writeMu and
// has advanced the visibility horizon, so every frozen record is
// visible. The memtable may overshoot MemtableBytes by one batch.
func (s *Store) maybeFlushLocked() {
	if s.cur.Load().mem.bytes() >= s.opts.MemtableBytes {
		s.flushLocked()
	}
}

// chargeProbes models pointer-chasing probe loads scattered in a region.
func (s *Store) chargeProbes(r sim.DataRegion, probes, width int) {
	if s.cpu == nil {
		return
	}
	for i := 0; i < probes; i++ {
		s.cpu.LoadR(r, s.nextRand()%maxU64(r.Size, 1), width)
	}
	s.cpu.IntOps(6 * probes)
	s.cpu.Branches(2 * probes)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// readBlock routes one modeled block access through the block cache: a
// hit touches the hot cache arena; a miss streams the block in from the
// run and admits it — the cost difference the characterization (and the
// BlockCacheHits/Misses counters) surface.
func (s *Store) readBlock(t *sstable, block int) {
	off, n := t.blockSpan(block)
	if s.cache == nil {
		s.cpu.LoadR(t.region, off, n)
		return
	}
	if s.cache.touch(blockKey{table: t.id, block: block}, n) {
		s.ct.cacheHits.Add(1)
		if s.cpu != nil {
			s.cpu.LoadR(s.cacheRegion, (t.id*8191+uint64(block))*64%maxU64(s.cacheRegion.Size, 1), 128)
			s.cpu.IntOps(40)
			s.cpu.Branches(8)
		}
		return
	}
	s.ct.cacheMisses.Add(1)
	if s.cpu != nil {
		s.cpu.LoadR(t.region, off, n)
		s.cpu.StoreR(s.cacheRegion, s.nextRand()%maxU64(s.cacheRegion.Size, 1), 64)
		s.cpu.IntOps(90)
		s.cpu.Branches(14)
	}
}

// Get returns the value for key. The read path is lock-free: it pins
// the current version with one atomic load and never contends with
// writers, flushes, or compactions. The version must be loaded before
// the horizon: any run already in the version was flushed below an
// earlier horizon, so run rows never need sequence filtering.
//
// The returned slice aliases the store's immutable internal record
// (memtable value chain or run row) rather than a copy — the
// zero-copy read contract. Callers must treat it as read-only; it
// stays valid indefinitely, since overwrites create new records and
// the garbage collector keeps referenced bytes alive.
func (s *Store) Get(key []byte) ([]byte, bool) {
	v := s.cur.Load()
	return s.getAt(v, s.visible.Load(), key)
}

// getAt serves a point read against a pinned version at a sequence
// horizon.
func (s *Store) getAt(v *version, seq uint64, key []byte) ([]byte, bool) {
	s.ct.gets.Add(1)
	// Request path: RPC decode, region/row-lock lookup, result encode.
	s.cpu.Code(s.readCode, s.codeOff(s.readCode), 768)
	s.cpu.IntOps(620)
	s.cpu.Branches(140)
	s.cpu.FPOps(5)
	val, tomb, ok, probes := v.mem.get(key, seq)
	if probes > 4 {
		probes = 4
	}
	s.chargeProbes(s.memRegion, probes, len(key)+8)
	if ok {
		if tomb {
			return nil, false
		}
		// The record chain is immutable after publication (overwrites
		// push new records), so the value can be returned without a
		// defensive copy — the read path's zero-copy contract.
		return val, true
	}
	// Newest-first: runs may overlap, and the newest copy wins.
	for i := len(v.runs) - 1; i >= 0; i-- {
		if r, found, dead := s.probeRun(v.runs[i], key); found {
			if dead {
				return nil, false
			}
			return r, true
		}
	}
	return nil, false
}

// probeRun checks one run for key: Bloom filter, block-index search,
// then a block read through the cache.
func (s *Store) probeRun(t *sstable, key []byte) (val []byte, found, dead bool) {
	// Bloom filter check: one or two cache lines of the bit array.
	s.cpu.LoadR(t.region, bloomProbeOff(key, t.region.Size), 16)
	s.cpu.IntOps(24)
	s.cpu.Branches(4)
	if s.opts.BloomBitsPerKey > 0 && !t.bloom.mayContain(key) {
		s.ct.bloomNegative.Add(1)
		return nil, false, false
	}
	s.ct.runsProbed.Add(1)
	r, idx, ok, probes := t.find(key)
	// The run's block index stays hot in the Java heap; only the last
	// few search steps touch cold index nodes.
	if probes > 3 {
		probes = 3
	}
	s.chargeProbes(t.region, probes, len(key)+16)
	// The candidate block is read (through the cache) whether or not the
	// key is ultimately present — the Bloom filter already passed. find's
	// terminal index names the block the key would live in.
	block := 0
	if idx < len(t.rows) {
		block = idx / blockRows
	} else if n := t.blocks(); n > 0 {
		block = n - 1
	}
	s.readBlock(t, block)
	if !ok {
		return nil, false, false
	}
	if r.tomb {
		return nil, true, true
	}
	// Run rows are immutable; return the value without a copy.
	return r.val, true, false
}

// Scan returns up to limit live entries with key >= start, in key
// order. Like Get it pins one version and the visibility horizon at
// entry, so a scan is point-in-time: it never observes a torn run set,
// half a WriteBatch, or writes that land mid-iteration.
//
// Returned keys and values alias the store's immutable records, under
// Get's zero-copy read contract: read-only, valid indefinitely.
func (s *Store) Scan(start []byte, limit int) []Entry {
	return s.AppendScan(nil, start, limit)
}

// AppendScan is Scan appending into dst (reusing its capacity): the
// allocation-free form for callers that hold a scratch entry buffer.
// Like Scan's, the appended keys and values alias stored records; a
// caller that pools dst clears the entries before recycling it, or the
// pooled entries keep superseded records reachable.
func (s *Store) AppendScan(dst []Entry, start []byte, limit int) []Entry {
	v := s.cur.Load()
	return s.scanAt(dst, v, s.visible.Load(), start, limit)
}

// scanCursor walks one sorted source of a pinned version, emitting rows
// visible at the scan's sequence horizon: the memtable when t is nil,
// else run t.
type scanCursor struct {
	cur row
	ok  bool

	node *skipNode // memtable position
	seq  uint64    // memtable visibility horizon

	t         *sstable // run source
	pos       int
	lastBlock int
}

// advance loads the cursor's next row into cur, or clears ok.
func (c *scanCursor) advance(s *Store) {
	if c.t == nil {
		for c.node != nil {
			n := c.node
			rec := n.resolve(c.seq)
			c.node = n.next[0].Load()
			if rec == nil {
				continue // written after the snapshot horizon
			}
			// Skiplist nodes are heap-scattered.
			if s.cpu != nil {
				s.cpu.LoadR(s.memRegion, s.nextRand()%s.memRegion.Size, len(n.key)+len(rec.val)+16)
			}
			c.cur, c.ok = row{key: n.key, val: rec.val, seq: rec.seq, tomb: rec.tomb}, true
			return
		}
		c.ok = false
		return
	}
	if c.pos >= len(c.t.rows) {
		c.ok = false
		return
	}
	// Sequential block reads through the cache at the cursor.
	if b := c.pos / blockRows; b != c.lastBlock {
		c.lastBlock = b
		s.readBlock(c.t, b)
	}
	s.cpu.IntOps(8)
	s.cpu.Branches(2)
	c.cur, c.ok = c.t.rows[c.pos], true
	c.pos++
}

// scanAt merges every source of a pinned version at a sequence horizon,
// appending up to limit entries to dst. The entries alias memtable
// records and run rows, which are never edited after publication, so
// nothing is copied on the way out.
func (s *Store) scanAt(dst []Entry, v *version, seq uint64, start []byte, limit int) []Entry {
	s.ct.scans.Add(1)
	s.cpu.Code(s.scanCode, s.codeOff(s.scanCode), 640)
	s.cpu.IntOps(520)
	s.cpu.Branches(120)
	s.cpu.FPOps(1)

	// A store rarely holds more runs than this; past it the cursors spill
	// to the heap.
	var stack [16]scanCursor
	cs := append(stack[:0], scanCursor{node: v.mem.seek(start), seq: seq})
	for _, t := range v.runs {
		// The seek itself binary-searches the run's block index.
		s.chargeProbes(t.region, 5, 24)
		cs = append(cs, scanCursor{t: t, pos: t.seek(start), lastBlock: -1})
	}
	for i := range cs {
		cs[i].advance(s)
	}
	out, base := dst, len(dst)
	scanned := 0
	for len(out)-base < limit {
		best := -1
		for i := range cs {
			c := &cs[i]
			if !c.ok {
				continue
			}
			if best == -1 ||
				bytes.Compare(c.cur.key, cs[best].cur.key) < 0 ||
				(bytes.Equal(c.cur.key, cs[best].cur.key) && c.cur.seq > cs[best].cur.seq) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		r := cs[best].cur
		// Advance every cursor past this key (older sequences lose).
		for i := range cs {
			for c := &cs[i]; c.ok && bytes.Equal(c.cur.key, r.key); c.advance(s) {
				scanned++
			}
		}
		if r.tomb {
			continue
		}
		out = append(out, Entry{Key: r.key, Value: r.val})
		s.cpu.IntOps(55)
		s.cpu.Branches(12)
		s.cpu.FPOps(1)
	}
	s.ct.scannedEntries.Add(uint64(scanned))
	return out
}

// Snapshot is a consistent point-in-time read view: Get and Scan resolve
// exactly the writes sequenced before the snapshot was taken, regardless
// of later writes, flushes, or compactions (the pinned version's runs
// are immutable and memtable records carry sequence numbers).
type Snapshot struct {
	s   *Store
	v   *version
	seq uint64
}

// Snapshot pins the current version and sequence horizon. Acquisition
// briefly serializes with writers so the horizon is exact; reads through
// the snapshot are lock-free.
func (s *Store) Snapshot() *Snapshot {
	s.writeMu.Lock()
	v := s.cur.Load()
	seq := s.visible.Load()
	s.writeMu.Unlock()
	return &Snapshot{s: s, v: v, seq: seq}
}

// Get returns the key's value as of the snapshot.
func (sn *Snapshot) Get(key []byte) ([]byte, bool) {
	return sn.s.getAt(sn.v, sn.seq, key)
}

// Scan returns up to limit live entries as of the snapshot. The entries
// alias stored records, as Store.Scan's do.
func (sn *Snapshot) Scan(start []byte, limit int) []Entry {
	return sn.s.scanAt(nil, sn.v, sn.seq, start, limit)
}

// AppendScan is Scan appending into dst (reusing its capacity), with
// Store.AppendScan's aliasing.
func (sn *Snapshot) AppendScan(dst []Entry, start []byte, limit int) []Entry {
	return sn.s.scanAt(dst, sn.v, sn.seq, start, limit)
}

// Release drops the snapshot's pin (the garbage collector reclaims the
// superseded runs once no snapshot references them).
func (sn *Snapshot) Release() { sn.v = nil }

// Flush forces the memtable into an immutable run.
func (s *Store) Flush() {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.flushLocked()
}

// flushLocked freezes the active memtable into a new run and installs a
// fresh version. Caller holds writeMu; readers pinned on the old version
// keep reading the frozen memtable.
func (s *Store) flushLocked() {
	v := s.cur.Load()
	if v.mem.count() == 0 {
		return
	}
	rows := v.mem.rows()
	t := buildSSTable(rows, s.opts.BloomBitsPerKey, s.cpu)
	// Sequential write of the run; HFile blocks are compressed on flush,
	// so the charged I/O is a third of the logical bytes.
	s.cpu.Code(s.walCode, s.codeOff(s.walCode), 512)
	s.cpu.StoreR(t.region, 0, t.bytes/3)
	nv := v.clone()
	nv.mem = newMemtable()
	nv.runs = append(nv.runs, t)
	s.cur.Store(nv)
	s.ct.flushes.Add(1)
	s.maybeCompactLocked()
}

// Stats snapshots the counters and sums the current version's run bytes.
func (s *Store) Stats() Stats {
	var runBytes uint64
	for _, t := range s.cur.Load().runs {
		runBytes += uint64(t.bytes)
	}
	return Stats{
		Puts:             s.ct.puts.Load(),
		Gets:             s.ct.gets.Load(),
		Deletes:          s.ct.deletes.Load(),
		Scans:            s.ct.scans.Load(),
		ScannedEntries:   s.ct.scannedEntries.Load(),
		Flushes:          s.ct.flushes.Load(),
		Compactions:      s.ct.compactions.Load(),
		BloomNegative:    s.ct.bloomNegative.Load(),
		RunsProbed:       s.ct.runsProbed.Load(),
		WALBytes:         s.ct.walBytes.Load(),
		BlockCacheHits:   s.ct.cacheHits.Load(),
		BlockCacheMisses: s.ct.cacheMisses.Load(),
		RunBytes:         runBytes,
	}
}

// Runs returns the current immutable run count (for tests/ablation).
func (s *Store) Runs() int {
	return len(s.cur.Load().runs)
}

// Len returns the number of live keys (linear; intended for tests).
func (s *Store) Len() int {
	return len(s.Scan(nil, math.MaxInt32))
}
