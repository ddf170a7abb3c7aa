package main

// spec sizes one workload. The sizes are part of the benchmark's
// definition (README.md says why each was chosen); a run never changes
// them except through runOptions.shrink, which tests use.
type spec struct {
	name string
	why  string

	// KV workloads.
	keys     int
	valueLen int
	batch    int     // point ops per ApplyInto; 0 on the scan workload
	zipf     bool    // Zipf(1.1) key popularity; uniform otherwise
	readFrac float64 // share of point ops that are Gets
	scanRows int     // rows per AppendScan; 0 on point workloads
	net      bool    // two loopback shard servers; in-process cluster otherwise
	repl     int     // replication factor R

	// Analytics workload.
	lines int

	// openLoopRate, when set, adds the diagnostic open-loop pass to the
	// traced run at this many ops/s.
	openLoopRate float64

	// ladderBatches is how many client calls the traced run replays at
	// each rung.
	ladderBatches int
}

func (s spec) analytics() bool { return s.lines > 0 }
func (s spec) scan() bool      { return s.scanRows > 0 }

// opsPerCall is how many client operations one client call carries: a
// batch of 16 point ops counts 16, a scan counts 1.
func (s spec) opsPerCall() int {
	if s.scan() {
		return 1
	}
	return s.batch
}

// shrink divides the data sizes, for the tests' smoke runs.
func (s spec) shrink(div int) spec {
	if div <= 1 {
		return s
	}
	if s.keys > 0 {
		s.keys = max(s.keys/div, 512)
	}
	if s.lines > 0 {
		s.lines = max(s.lines/div, 2000)
	}
	s.ladderBatches = max(s.ladderBatches/div, 64)
	return s
}

const (
	clients     = 2  // closed-loop client goroutines; this sandbox has 2 cores
	connsPerSrv = 1  // client connections per shard server
	shards      = 2  // shard servers (or in-process shards, or executors)
	windows     = 10 // equal timed windows per KV run
)

var workloads = []spec{
	{
		name: "kv-read-net",
		why:  "small hot set in the memtable over loopback: transport and cluster do the work, engine almost none",
		keys: 4096, valueLen: 128, batch: 16, zipf: true, readFrac: 0.95,
		net: true, repl: 1, ladderBatches: 20000, openLoopRate: 100000,
	},
	{
		name: "kv-read-bigset",
		why:  "100 MB uniform set in-process, far above block cache and memtable: engine dominates, transport bypassed",
		keys: 400000, valueLen: 256, batch: 16, readFrac: 0.95,
		repl: 1, ladderBatches: 20000,
	},
	{
		name: "kv-update-r2",
		why:  "half writes of 1 KiB at R=2 over loopback: mirror legs, flushes, compaction stalls, large frames",
		keys: 100000, valueLen: 1024, batch: 16, zipf: true, readFrac: 0.5,
		net: true, repl: 2, ladderBatches: 5000,
	},
	{
		name: "kv-scan-net",
		why:  "100-row scans over loopback: scatter-gather merge, engine iterators, ~30 KB response frames",
		keys: 200000, valueLen: 256, scanRows: 100,
		net: true, repl: 1, ladderBatches: 5000,
	},
	{
		name:  "an-wordcount",
		why:   "distributed WordCount on two executors: analytics map/shuffle/reduce and bdgs generation (the paper's DPS class)",
		lines: 100000,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
