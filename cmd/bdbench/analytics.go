package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/analytics"
	"repro/internal/bdgs"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/transport"
)

// analyticsConfig carries the -analytics flags out of main.
type analyticsConfig struct {
	job       string // wordcount | grep | sort | pagerank | kmeans
	addrs     string // external executor servers; empty self-hosts -nodes
	local     bool   // run the in-process reference instead
	nodes     int    // self-hosted executor servers
	input     string // bdgs | engine
	lines     int
	graphBits int
	vectors   int
	iters     int
	mapTasks  int
	reducers  int
	scale     int
	seed      int64
	workers   int
	rows      int // preloaded rows for -input engine
	jsonPath  string
	engine    engine.Options
}

// buildJob translates the flags into a JobSpec. -scale multiplies the
// input volume like the workload runner's scale knob.
func buildJob(cfg analyticsConfig) analytics.JobSpec {
	scale := cfg.scale
	if scale < 1 {
		scale = 1
	}
	job := analytics.JobSpec{
		Kind:       analytics.JobKind(cfg.job),
		Seed:       cfg.seed,
		Input:      cfg.input,
		Lines:      cfg.lines * scale,
		GraphBits:  cfg.graphBits + log2ceil(scale),
		Vectors:    cfg.vectors * scale,
		Iterations: cfg.iters,
		MapTasks:   cfg.mapTasks,
		Reducers:   cfg.reducers,
	}
	return job
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// itemName is the unit of the job's throughput metric.
func itemName(kind analytics.JobKind) string {
	switch kind {
	case analytics.PageRank:
		return "vertices"
	case analytics.KMeans:
		return "vectors"
	default:
		return "records"
	}
}

// runAnalytics executes one distributed analytics job (or its in-process
// reference with -local) and reports runtime, throughput, task latency
// and the result digest. The digest line is the comparison surface: a
// distributed run and a -local run of the same job must print the same
// digest, which scripts/transport_smoke.sh phase 3 diffs.
func runAnalytics(cfg analyticsConfig) int {
	job := buildJob(cfg)

	// With -json - the JSON record owns stdout (as in workload mode);
	// the human report is suppressed so the output stays parseable.
	human := cfg.jsonPath != "-"

	if cfg.local {
		res, err := analytics.RunLocal(job, cfg.workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
		if human {
			printAnalytics(cfg, "local", 0, res)
		}
		return writeAnalyticsJSON(cfg, "local", 0, res, nil)
	}

	addrs, cleanup, err := analyticsServers(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		return 1
	}
	defer cleanup()

	// Engine input: preload rows through a KV coordinator (R=1 — each
	// row on exactly one executor) and keep the global scan around as
	// the in-process reference to diff against.
	var refPairs []mapreduce.KV
	if job.Input == analytics.InputEngine {
		refPairs, err = preloadEngineRows(cfg, job, addrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
	}

	coord, err := analytics.NewCoordinator(addrs, analytics.CoordinatorOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		return 1
	}
	defer coord.Close()
	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg)
	// The executors' own registries (task counts and latencies, shuffle
	// bytes, engine scans) join the record through fleetSample.
	var peers []*transport.RemoteNode
	for _, addr := range addrs {
		rn, err := transport.Connect(addr, transport.ClientOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: connect %s: %v\n", addr, err)
			return 1
		}
		defer rn.Close()
		peers = append(peers, rn)
	}
	before := fleetSample(reg, peers)
	res, err := coord.Run(job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		return 1
	}
	metricsDelta := fleetDelta(before, fleetSample(reg, peers))
	if human {
		printAnalytics(cfg, "distributed", len(addrs), res)
	}
	if refPairs != nil {
		match := len(refPairs) == len(res.Pairs)
		for i := 0; match && i < len(refPairs); i++ {
			match = refPairs[i] == res.Pairs[i]
		}
		if human {
			fmt.Printf("  engine-input reference: %d pairs, match %v\n", len(refPairs), match)
		}
		if !match {
			fmt.Fprintln(os.Stderr, "bdbench: distributed engine-input result diverges from the in-process reference")
			return 1
		}
	}
	return writeAnalyticsJSON(cfg, "distributed", len(addrs), res, metricsDelta)
}

// analyticsServers resolves the executor fleet: the -addr list, or
// -nodes self-hosted in-process servers (each its own cluster + executor
// behind a real socket, so the wire path is exercised either way).
func analyticsServers(cfg analyticsConfig) (addrs []string, cleanup func(), err error) {
	if addrs = splitAddrs(cfg.addrs); len(addrs) > 0 {
		return addrs, func() {}, nil
	}
	n := cfg.nodes
	if n <= 0 {
		n = 2
	}
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		backend := cluster.New(cluster.Config{Shards: 1, Engine: cfg.engine})
		ex := analytics.NewExecutor(analytics.ExecutorConfig{
			Self:  ln.Addr().String(),
			Local: backend,
		})
		reg := obs.NewRegistry()
		backend.RegisterMetrics(reg)
		ex.RegisterMetrics(reg)
		srv := transport.Serve(ln, backend, transport.ServerOptions{Tasks: ex, Metrics: reg})
		closers = append(closers, func() { srv.Close() }, ex.Close, backend.Close)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, cleanup, nil
}

// preloadEngineRows loads -rows resumé records across the executor
// servers and returns the in-process reference result computed from a
// coordinator-side global scan of the same data.
func preloadEngineRows(cfg analyticsConfig, job analytics.JobSpec, addrs []string) ([]mapreduce.KV, error) {
	kv := cluster.NewEmpty(cluster.Config{Replication: 1})
	defer kv.Close()
	for _, addr := range addrs {
		rn, err := transport.Connect(addr, transport.ClientOptions{})
		if err != nil {
			return nil, fmt.Errorf("connect %s: %w", addr, err)
		}
		if _, _, err := kv.AddRemote(rn); err != nil {
			return nil, fmt.Errorf("join %s: %w", addr, err)
		}
	}
	rows := cfg.rows
	if rows < 64 {
		rows = 64
	}
	var m bdgs.ResumeModel
	for _, re := range m.StableResumes(cfg.seed, 0, rows, rows) {
		if err := kv.Put([]byte(re.Key), re.Encode()); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	entries, err := kv.Scan(nil, 1<<30)
	if err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	recs := make([]mapreduce.Record, len(entries))
	for i, e := range entries {
		recs[i] = mapreduce.Record{Key: string(e.Key), Value: string(e.Value)}
	}
	ref, err := analytics.RunLocalRecords(job, cfg.workers, recs)
	if err != nil {
		return nil, err
	}
	return ref.Pairs, nil
}

// printAnalytics renders one run's human-readable report.
func printAnalytics(cfg analyticsConfig, mode string, nodes int, res *analytics.JobResult) {
	where := mode
	if nodes > 0 {
		where = fmt.Sprintf("%s, %d nodes", mode, nodes)
	}
	items := res.Job.Items()
	if res.InputRecords > 0 {
		items = res.InputRecords
	}
	unit := itemName(res.Job.Kind)
	fmt.Printf("analytics %s  (%s, seed %d)\n", res.Job.Kind, where, cfg.seed)
	fmt.Printf("  processed: %d %s in %v\n", items, unit, res.Elapsed.Round(time.Microsecond))
	fmt.Printf("  DPS: %.1f %s/s\n", float64(items)/res.Elapsed.Seconds(), unit)
	fmt.Printf("  tasks: %d maps, %d reduces, %d retries\n",
		res.MapTasks, res.ReduceTasks, res.Retries)
	if res.RecoveryRounds > 0 {
		fmt.Printf("  recovery: %d lost-shuffle map re-run rounds\n", res.RecoveryRounds)
	}
	if res.Job.Trace != 0 {
		fmt.Printf("  trace: %d (grep it in the executors' /tracez)\n", res.Job.Trace)
	}
	if res.ShuffleBytes > 0 {
		fmt.Printf("  shuffle: %.1f KiB\n", float64(res.ShuffleBytes)/1024)
	}
	if res.TaskLatency.Count > 0 {
		fmt.Printf("  task latency: %s\n", res.TaskLatency)
	}
	fmt.Printf("  digest: %016x\n", res.Digest())
}

// analyticsJSON is the machine-readable record one run appends to the
// BENCH_*.json trajectory.
type analyticsJSON struct {
	Mode         string  `json:"mode"`
	Job          string  `json:"job"`
	Nodes        int     `json:"nodes"`
	Items        int     `json:"items"`
	Unit         string  `json:"unit"`
	ElapsedNs    int64   `json:"elapsedNs"`
	ItemsPerSec  float64 `json:"itemsPerSec"`
	MapTasks     int     `json:"mapTasks"`
	ReduceTasks  int     `json:"reduceTasks"`
	Retries      int     `json:"retries"`
	ShuffleBytes int64   `json:"shuffleBytes"`
	TaskP50Us    float64 `json:"taskP50Us"`
	TaskP95Us    float64 `json:"taskP95Us"`
	TaskP99Us    float64 `json:"taskP99Us"`
	Digest       string  `json:"digest"`
	// Trace is the job's wire trace id (decimal; 0 for -local runs),
	// RecoveryRounds the lost-shuffle map re-runs it took.
	Trace          uint64 `json:"trace,string,omitempty"`
	RecoveryRounds int    `json:"recoveryRounds,omitempty"`
	// Metrics is the coordinator's obs registry delta across the run
	// (bd_analytics_* counters).
	Metrics map[string]obs.Value `json:"metrics,omitempty"`
}

func writeAnalyticsJSON(cfg analyticsConfig, mode string, nodes int, res *analytics.JobResult,
	metrics map[string]obs.Value) int {
	if cfg.jsonPath == "" {
		return 0
	}
	items := res.Job.Items()
	if res.InputRecords > 0 {
		items = res.InputRecords
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	rec := analyticsJSON{
		Mode: mode, Job: string(res.Job.Kind), Nodes: nodes,
		Items: items, Unit: itemName(res.Job.Kind),
		ElapsedNs:   res.Elapsed.Nanoseconds(),
		ItemsPerSec: float64(items) / res.Elapsed.Seconds(),
		MapTasks:    res.MapTasks, ReduceTasks: res.ReduceTasks,
		Retries: res.Retries, ShuffleBytes: res.ShuffleBytes,
		TaskP50Us: us(res.TaskLatency.P50), TaskP95Us: us(res.TaskLatency.P95),
		TaskP99Us: us(res.TaskLatency.P99),
		Digest:    fmt.Sprintf("%016x", res.Digest()),
		Trace:     res.Job.Trace, RecoveryRounds: res.RecoveryRounds,
		Metrics: metrics,
	}
	if err := writeJSONFile(cfg.jsonPath, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		return 1
	}
	return 0
}

// writeJSONFile writes v as indented JSON to path ("-" = stdout).
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
