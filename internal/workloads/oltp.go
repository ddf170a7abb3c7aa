package workloads

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/bdgs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// avgResumeBytes is the mean encoded resume size used for sizing.
const avgResumeBytes = 160

// newOLTPMeta shares the Table 4 taxonomy of the three Cloud-OLTP
// workloads: a ProfSearch resume corpus stored in the LSM store (the
// paper's HBase).
func newOLTPMeta(name string) meta {
	return meta{
		name: name, class: core.CloudOLTP, metric: core.OPS,
		stack: "HBase", dtype: "semi-structured", dsource: "table",
		baseline: "32 GB resumés",
	}
}

// resumeCount sizes the corpus from the Table 6 byte figure.
func resumeCount(in core.Input) int {
	n := in.Bytes(32) / avgResumeBytes
	if n < 64 {
		n = 64
	}
	return n
}

// EngineChoice configures the storage engine the Cloud-OLTP workloads
// run on. The zero value is the default engine with the default cache.
type EngineChoice struct {
	// BlockCacheBytes sizes the block cache (0 default, negative off).
	BlockCacheBytes int
}

// ConfigureEngine installs the choice; it is promoted to every workload
// that embeds EngineChoice, so cmd/bdbench can configure them uniformly.
func (e *EngineChoice) ConfigureEngine(c EngineChoice) { *e = c }

// EngineConfigurable is satisfied by workloads carrying an EngineChoice.
type EngineConfigurable interface {
	ConfigureEngine(EngineChoice)
}

// options maps the choice onto engine options for one store instance.
func (e EngineChoice) options(in core.Input, memtableBytes int) engine.Options {
	return engine.Options{
		BlockCacheBytes: e.BlockCacheBytes,
		MemtableBytes:   memtableBytes,
		CPU:             in.CPU,
	}
}

// loadEngine opens the chosen engine preloaded with n resumés (untimed
// phase).
func loadEngine(in core.Input, ch EngineChoice, n int) (engine.Engine, error) {
	s, err := engine.Open(ch.options(in, 1<<20))
	if err != nil {
		return nil, err
	}
	var m bdgs.ResumeModel
	for _, re := range m.Generate(in.Seed, n) {
		s.Put([]byte(re.Key), re.Encode())
	}
	return s, nil
}

// cacheExtra adds the block-cache counters to a result's Extra map.
func cacheExtra(extra map[string]float64, st engine.Stats) {
	extra["cacheHits"] = float64(st.BlockCacheHits)
	extra["cacheMisses"] = float64(st.BlockCacheMisses)
	if total := st.BlockCacheHits + st.BlockCacheMisses; total > 0 {
		extra["cacheHitRate"] = float64(st.BlockCacheHits) / float64(total)
	}
}

// ReadWorkload is Table 4 row "Read": Zipf-skewed point lookups.
type ReadWorkload struct {
	meta
	EngineChoice
}

// NewRead constructs the workload.
func NewRead() *ReadWorkload { return &ReadWorkload{meta: newOLTPMeta("Read")} }

// Run implements core.Workload.
func (w *ReadWorkload) Run(in core.Input) (core.Result, error) {
	in = in.Normalize()
	n := resumeCount(in)
	s, err := loadEngine(in, w.EngineChoice, n)
	if err != nil {
		return core.Result{}, err
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(in.Seed + 101))
	z := rand.NewZipf(rng, 1.1, 4, uint64(n-1))
	ops := n            // one operation per stored row, as the volume scales
	in.CPU.ResetStats() // the bulk load above is untimed warmup

	var lat core.LatencyRecorder
	start := time.Now()
	hits := 0
	for i := 0; i < ops; i++ {
		opStart := time.Now()
		if _, ok := s.Get([]byte(bdgs.ResumeKey(int(z.Uint64())))); ok {
			hits++
		}
		lat.Record(time.Since(opStart))
	}
	r := core.Result{
		Workload: w.name, Scale: in.Scale, Units: int64(ops), UnitName: "ops",
		Elapsed: time.Since(start), Metric: w.metric, Counts: in.CPU.Counts(),
		Extra: map[string]float64{"hitRate": float64(hits) / float64(ops)},
	}
	cacheExtra(r.Extra, s.Stats())
	lat.Attach(&r)
	r.Finish()
	return r, nil
}

// WriteWorkload is Table 4 row "Write": bulk inserts through WAL and
// memtable with background flush/compaction.
type WriteWorkload struct {
	meta
	EngineChoice
}

// NewWrite constructs the workload.
func NewWrite() *WriteWorkload { return &WriteWorkload{meta: newOLTPMeta("Write")} }

// Run implements core.Workload.
func (w *WriteWorkload) Run(in core.Input) (core.Result, error) {
	in = in.Normalize()
	n := resumeCount(in)
	var m bdgs.ResumeModel
	resumes := m.Generate(in.Seed, n)
	s, err := engine.Open(w.EngineChoice.options(in, 1<<20))
	if err != nil {
		return core.Result{}, err
	}
	defer s.Close()

	start := time.Now()
	for _, re := range resumes {
		s.Put([]byte(re.Key), re.Encode())
	}
	st := s.Stats()
	r := core.Result{
		Workload: w.name, Scale: in.Scale, Units: int64(n), UnitName: "ops",
		Elapsed: time.Since(start), Metric: w.metric, Counts: in.CPU.Counts(),
		Extra: map[string]float64{
			"flushes":     float64(st.Flushes),
			"compactions": float64(st.Compactions),
		},
	}
	r.Finish()
	return r, nil
}

// ClusterOLTPWorkload is the scale-out variant of the Cloud OLTP rows: a
// Zipf-skewed read/write mix driven by concurrent clients against the
// sharded, replicated cluster runtime (internal/cluster) instead of a
// single store — the paper's HBase deployment on its 14-node testbed
// rather than one region server. Clients submit fixed-size batches
// through the coordinator's bounded queues and record the batch service
// time each op rode in.
type ClusterOLTPWorkload struct {
	meta
	// Shards is the node count (default 4).
	Shards int
	// Replication is the copies per key (default 1).
	Replication int
	// Clients is the number of concurrent load generators (default 8).
	Clients int
	// BatchSize is ops per client batch (default 64; large enough to
	// amortize the per-shard fan-out when batches scatter).
	BatchSize int
	// ReadFraction is the Get share of the mix (default 0.95, the
	// read-heavy serving mix; the rest are Puts).
	ReadFraction float64
	// MemtableBytes sizes each shard's memtable (default 32 KiB —
	// roughly the memstore/region ratio of a production HBase node, so
	// the timed phase exercises flush and full-store compaction, the
	// costs sharding divides by N).
	MemtableBytes int
	// EngineChoice selects each shard's storage engine.
	EngineChoice
}

// NewClusterOLTP constructs the workload with the read-heavy defaults.
func NewClusterOLTP() *ClusterOLTPWorkload {
	m := newOLTPMeta("Cluster OLTP")
	m.stack = "HBase (sharded)"
	return &ClusterOLTPWorkload{
		meta: m, Shards: 4, Replication: 1, Clients: 8, BatchSize: 64,
		ReadFraction: 0.95, MemtableBytes: 32 << 10,
	}
}

// Run implements core.Workload.
func (w *ClusterOLTPWorkload) Run(in core.Input) (core.Result, error) {
	in = in.Normalize()
	n := resumeCount(in)
	shards := max(w.Shards, 1)
	replication := max(w.Replication, 1)
	if replication > shards {
		replication = shards // mirror the cluster's clamp in what we report
	}
	cl := cluster.New(cluster.Config{
		Shards:      shards,
		Replication: replication,
		Engine:      w.EngineChoice.options(in, w.MemtableBytes),
	})
	defer cl.Close()

	// Untimed bulk load through the batch path, with values pre-encoded so
	// the timed mix measures the serving path, not the generator.
	var m bdgs.ResumeModel
	resumes := m.Generate(in.Seed, n)
	vals := make([][]byte, n)
	batch := make([]cluster.Op, 0, 64)
	for i, re := range resumes {
		vals[i] = re.Encode()
		batch = append(batch, cluster.Op{Kind: cluster.OpPut, Key: []byte(re.Key), Value: vals[i]})
		if len(batch) == cap(batch) {
			if _, err := cl.Apply(batch); err != nil {
				return core.Result{}, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := cl.Apply(batch); err != nil {
			return core.Result{}, err
		}
	}
	in.CPU.ResetStats()

	clients := w.Clients
	if clients < 1 {
		clients = 1
	}
	batchSize := w.BatchSize
	if batchSize < 1 {
		batchSize = 1
	}
	perClient := (n + clients - 1) / clients
	recs := make([]core.LatencyRecorder, clients)
	hits := make([]int, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(in.Seed + 707*int64(c+1)))
			z := rand.NewZipf(rng, 1.1, 4, uint64(n-1))
			ops := make([]cluster.Op, 0, batchSize)
			for done := 0; done < perClient; done += len(ops) {
				ops = ops[:0]
				for len(ops) < batchSize && done+len(ops) < perClient {
					row := int(z.Uint64())
					key := []byte(bdgs.ResumeKey(row))
					if rng.Float64() < w.ReadFraction {
						ops = append(ops, cluster.Op{Kind: cluster.OpGet, Key: key})
					} else {
						ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: key, Value: vals[row]})
					}
				}
				opStart := time.Now()
				res, err := cl.Apply(ops)
				if err != nil {
					errs[c] = err
					return
				}
				d := time.Since(opStart)
				for _, r := range res {
					recs[c].Record(d)
					if r.Found {
						hits[c]++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return core.Result{}, err
		}
	}
	var lat core.LatencyRecorder
	totalHits := 0
	for c := range recs {
		lat.Merge(&recs[c])
		totalHits += hits[c]
	}
	st := cl.Stats()
	var flushes, compactions float64
	var engStats engine.Stats
	for _, ns := range st.Nodes {
		flushes += float64(ns.Store.Flushes)
		compactions += float64(ns.Store.Compactions)
		engStats.BlockCacheHits += ns.Store.BlockCacheHits
		engStats.BlockCacheMisses += ns.Store.BlockCacheMisses
	}
	totalOps := int64(lat.Count())
	r := core.Result{
		Workload: w.name, Scale: in.Scale, Units: totalOps, UnitName: "ops",
		Elapsed: elapsed, Metric: w.metric, Counts: in.CPU.Counts(),
		Extra: map[string]float64{
			"shards":      float64(shards),
			"replication": float64(replication),
			"clients":     float64(clients),
			"hitRate":     float64(totalHits) / float64(max(int(totalOps), 1)),
			"batches":     float64(st.Batches),
			"rejected":    float64(st.Rejected),
			"flushes":     flushes,
			"compactions": compactions,
		},
	}
	cacheExtra(r.Extra, engStats)
	lat.Attach(&r)
	r.Finish()
	return r, nil
}

// ScanWorkload is Table 4 row "Scan": short range scans from random
// start keys.
type ScanWorkload struct {
	meta
	// ScanLength is rows per scan (default 50, the YCSB-style setting).
	ScanLength int
	EngineChoice
}

// NewScan constructs the workload.
func NewScan() *ScanWorkload {
	return &ScanWorkload{meta: newOLTPMeta("Scan"), ScanLength: 50}
}

// Run implements core.Workload.
func (w *ScanWorkload) Run(in core.Input) (core.Result, error) {
	in = in.Normalize()
	n := resumeCount(in)
	s, err := loadEngine(in, w.EngineChoice, n)
	if err != nil {
		return core.Result{}, err
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(in.Seed + 202))
	scans := n / w.ScanLength
	if scans < 1 {
		scans = 1
	}
	in.CPU.ResetStats() // bulk load is untimed warmup

	start := time.Now()
	var rows int64
	for i := 0; i < scans; i++ {
		from := rng.Intn(n)
		got := s.Scan([]byte(bdgs.ResumeKey(from)), w.ScanLength)
		rows += int64(len(got))
	}
	r := core.Result{
		Workload: w.name, Scale: in.Scale, Units: rows, UnitName: "ops",
		Elapsed: time.Since(start), Metric: w.metric, Counts: in.CPU.Counts(),
		Extra: map[string]float64{"scans": float64(scans)},
	}
	cacheExtra(r.Extra, s.Stats())
	r.Finish()
	return r, nil
}
