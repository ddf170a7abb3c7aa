// Command bdbench runs individual BigDataBench workloads and reports the
// user-perceivable metric (DPS/RPS/OPS, paper Section 6.1.2) and, when a
// machine model is selected, the architectural characterization counters.
//
// Examples:
//
//	bdbench -list
//	bdbench -workload WordCount -scale 4
//	bdbench -workload Grep -scale 32 -machine e5645
//	bdbench -workload "Nutch Server" -machine e5310 -reqs 500
//	bdbench -workload "Cluster OLTP" -shards 8 -replication 2 -clients 16
//	bdbench -workload "Cluster OLTP" -blockcache 1048576
//	bdbench -workload Read -blockcache -1
//	bdbench -workload "Nutch Server" -shards 4
//	bdbench -listen 127.0.0.1:7421 -shards 2
//	bdbench -net -addr 127.0.0.1:7421,127.0.0.1:7422 -ops 50000 -clients 8
//	bdbench -net -chaos -dur 5s
//	bdbench -net -chaos -addr 127.0.0.1:7421,127.0.0.1:7422 -replication 2 -dur 3s
//	bdbench -net -addr 127.0.0.1:7421,127.0.0.1:7422 -replication 2 -trace
//	bdbench -net -addr 127.0.0.1:7421 -slo 5ms:0.999 -json -
//	bdbench -net -addr 127.0.0.1:7421,127.0.0.1:7422 -elastic -dur 5s
//	bdbench -net -resize -dur 8s -json -
//	bdbench -analytics wordcount -nodes 4
//	bdbench -analytics wordcount -local
//	bdbench -analytics pagerank -addr 127.0.0.1:7421,127.0.0.1:7422 -graphbits 12
//	bdbench -analytics wordcount -input engine -rows 20000
//	bdbench -workload Grep -scale 4 -json results.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the nineteen workloads and exit")
		name     = flag.String("workload", "", "workload name (see -list)")
		scale    = flag.Int("scale", 1, "data-volume multiplier over the Table 6 baseline")
		machine  = flag.String("machine", "none", "processor model: e5645, e5310 or none")
		unit     = flag.Int64("unit", core.DefaultScaleUnit, "bytes per paper-GB")
		pages    = flag.Int("pages", core.DefaultPagesPerMPage, "generated pages per paper 10^6 pages")
		reqs     = flag.Int("reqs", core.DefaultReqsPerUnit, "requests per paper 100 req/s unit")
		vertices = flag.Int("vertices", core.DefaultVertexUnit, "baseline graph vertices (power of two)")
		seed     = flag.Int64("seed", 1, "data-generation seed")
		workers  = flag.Int("workers", 4, "substrate parallelism")
		jsonPath = flag.String("json", "", `write machine-readable results JSON to this path ("-" = stdout)`)
		shards   = flag.Int("shards", 0, "shard count for the cluster-capable workloads (0 = workload default)")
		repl     = flag.Int("replication", 0, "copies per key for Cluster OLTP (0 = workload default)")
		clients  = flag.Int("clients", 0, "concurrent load generators for Cluster OLTP (0 = workload default)")
		bcache   = flag.Int("blockcache", 0, "block-cache bytes per engine (0 = default, negative disables)")
		netMode  = flag.Bool("net", false, "drive the Zipf 95/5 OLTP mix over sockets against the -addr shard servers")
		addrs    = flag.String("addr", "", "comma-separated shard server addresses for -net")
		listen   = flag.String("listen", "", "host shard nodes on this address instead of running a workload (bdserve embedded)")
		netOps   = flag.Int("ops", 50000, "total operations for -net")
		netBatch = flag.Int("batch", 64, "ops per client batch for -net")
		netRows  = flag.Int("rows", 10000, "preloaded resume rows for -net")
		netConns = flag.Int("conns", 1, "pooled connections per shard server for -net")
		traceEv  = flag.Int("traceevery", 0, "with -net: stamp a wire trace id on every Nth batch per client (0 disables)")
		traceRun = flag.Bool("trace", false, "with -net: after the run, drive one traced probe, fetch every server's spans over the wire and print the assembled trace")
		sloSpec  = flag.String("slo", "", "with -net: request-latency SLO as <threshold>:<target>, e.g. 5ms:0.999 (summary prints after the run and lands in -json)")
		netDur   = flag.Duration("dur", 0, "run -net for a wall-clock duration instead of -ops")
		chaos    = flag.Bool("chaos", false, "failure-aware -net: tolerate dying members; without -addr, self-host two shard servers and kill/restart them")
		killEv   = flag.Duration("killevery", 500*time.Millisecond, "period between chaos kills (self-hosted -chaos)")
		downFor  = flag.Duration("downfor", 300*time.Millisecond, "how long a chaos-killed server stays down")
		elastOn  = flag.Bool("elastic", false, "with -net: treat -addr as gossip seeds and join the epoch-versioned elastic cluster instead of wiring a static ring")
		resizeOn = flag.Bool("resize", false, "self-host an elastic cluster and resize it mid-run (join a member, retire another), reporting throughput/latency before, during and after the migrations")

		analyticsJob = flag.String("analytics", "", "run a distributed analytics job: wordcount, grep, sort, pagerank or kmeans")
		anLocal      = flag.Bool("local", false, "with -analytics: run the in-process reference engine instead of the cluster")
		anNodes      = flag.Int("nodes", 2, "self-hosted executor servers for -analytics without -addr")
		anInput      = flag.String("input", "", "map input source for -analytics: bdgs (default) or engine")
		anLines      = flag.Int("lines", 20000, "text records for -analytics wordcount/grep/sort (scaled by -scale)")
		anGraphBits  = flag.Int("graphbits", 11, "2^bits vertices for -analytics pagerank (plus log2 of -scale)")
		anVectors    = flag.Int("vectors", 4096, "vectors for -analytics kmeans (scaled by -scale)")
		anIters      = flag.Int("iters", 5, "supersteps for -analytics pagerank/kmeans")
		anMapTasks   = flag.Int("maptasks", 0, "map tasks for -analytics (0 = 2x executors)")
		anReducers   = flag.Int("reducers", 0, "reduce partitions for -analytics (0 = executor count)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a post-GC heap profile at exit to this path")
	)
	flag.Parse()

	stopProf, perr := startProfiles(*cpuProf, *memProf)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", perr)
		os.Exit(2)
	}
	// Every exit path must flush the profiles: the run modes exit with
	// their own status codes, so they go through exit rather than
	// os.Exit; the defer covers the plain returns below.
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if *analyticsJob != "" {
		exit(runAnalytics(analyticsConfig{
			job: *analyticsJob, addrs: *addrs, local: *anLocal, nodes: *anNodes,
			input: *anInput, lines: *anLines, graphBits: *anGraphBits,
			vectors: *anVectors, iters: *anIters,
			mapTasks: *anMapTasks, reducers: *anReducers,
			scale: *scale, seed: *seed, workers: *workers, rows: *netRows,
			jsonPath: *jsonPath,
			engine:   engine.Options{BlockCacheBytes: *bcache},
		}))
	}

	if *listen != "" || *netMode || *resizeOn {
		cfg := netConfig{
			addrs: *addrs, listen: *listen, shards: *shards, repl: max(*repl, 1),
			clients: *clients, conns: *netConns, ops: *netOps, batch: *netBatch,
			rows: *netRows, seed: *seed, jsonPath: *jsonPath, traceEvery: *traceEv,
			trace: *traceRun, slo: *sloSpec,
			chaos: *chaos, killEvery: *killEv, downFor: *downFor, dur: *netDur,
			elastic: *elastOn, resize: *resizeOn,
			engine: engine.Options{BlockCacheBytes: *bcache},
		}
		if cfg.clients <= 0 {
			cfg.clients = 8
		}
		if cfg.batch <= 0 {
			cfg.batch = 1
		}
		if cfg.rows < 64 {
			cfg.rows = 64
		}
		if *listen != "" {
			exit(runListen(cfg))
		}
		if cfg.resize {
			exit(runResize(cfg))
		}
		exit(runNet(cfg))
	}

	if *list {
		tab := &core.Table{Headers: []string{"Workload", "Type", "Stack", "Source", "Metric", "Baseline"}}
		for _, w := range append(workloads.All(), workloads.Extras()...) {
			tab.AddRow(w.Name(), w.Class().String(), w.Stack(), w.DataSource(),
				w.Metric().String(), w.BaselineInput())
		}
		fmt.Print(tab.Render())
		return
	}
	w := workloads.ByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bdbench: unknown workload %q (try -list)\n", *name)
		exit(2)
	}
	if *bcache != 0 {
		ec, ok := w.(workloads.EngineConfigurable)
		if !ok {
			fmt.Fprintf(os.Stderr, "bdbench: workload %q does not take -blockcache\n", *name)
			exit(2)
		}
		ec.ConfigureEngine(workloads.EngineChoice{BlockCacheBytes: *bcache})
	}
	switch cw := w.(type) {
	case *workloads.ClusterOLTPWorkload:
		if *shards > 0 {
			cw.Shards = *shards
		}
		if *repl > 0 {
			cw.Replication = *repl
		}
		if *clients > 0 {
			cw.Clients = *clients
		}
	case *workloads.NutchServerWorkload:
		if *shards > 0 {
			cw.IndexShards = *shards
		}
	}
	in := core.Input{
		Scale: *scale, ScaleUnit: *unit, PagesPerMPage: *pages,
		ReqsPerUnit: *reqs, VertexUnit: *vertices, Seed: *seed, Workers: *workers,
	}
	var res core.Result
	var err error
	var timing sim.TimingConfig
	switch strings.ToLower(*machine) {
	case "none", "":
		res, err = core.Measure(w, in)
	case "e5645":
		cfg := sim.XeonE5645()
		timing = cfg.Timing
		res, err = core.Characterize(w, in, cfg)
	case "e5310":
		cfg := sim.XeonE5310()
		timing = cfg.Timing
		res, err = core.Characterize(w, in, cfg)
	default:
		fmt.Fprintf(os.Stderr, "bdbench: unknown machine %q\n", *machine)
		exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		exit(1)
	}
	if *jsonPath == "-" {
		if err := core.WriteJSON(os.Stdout, []core.Result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			exit(1)
		}
		return
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err == nil {
			err = core.WriteJSON(f, []core.Result{res})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			exit(1)
		}
		// The file is the machine record; the human report still prints.
	}

	fmt.Printf("%s  (scale %dx, seed %d)\n", res.Workload, res.Scale, *seed)
	fmt.Printf("  processed: %d %s in %v\n", res.Units, res.UnitName, res.Elapsed)
	fmt.Printf("  %s: %.1f %s/s\n", res.Metric, res.Value, res.UnitName)
	// Extra keys print sorted so runs are byte-for-byte diffable.
	extraKeys := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)
	for _, k := range extraKeys {
		fmt.Printf("  %s: %.4g\n", k, res.Extra[k])
	}
	if k := res.Counts; k.Instructions() > 0 {
		mix := k.Mix()
		fmt.Printf("architectural characterization (%s):\n", strings.ToUpper(*machine))
		fmt.Printf("  instructions: %d  (load %.1f%% store %.1f%% branch %.1f%% int %.1f%% fp %.1f%%)\n",
			k.Instructions(), mix.Load*100, mix.Store*100, mix.Branch*100,
			mix.Integer*100, mix.FP*100)
		fmt.Printf("  MPKI: L1I %.2f  L1D %.2f  L2 %.2f  L3 %.2f  ITLB %.2f  DTLB %.2f\n",
			k.L1IMPKI(), k.L1DMPKI(), k.L2MPKI(), k.L3MPKI(), k.ITLBMPKI(), k.DTLBMPKI())
		fmt.Printf("  MIPS %.0f  CPI %.2f  int/FP %.1f  FP intensity %.4f  int intensity %.3f\n",
			k.MIPS(timing), k.CPI(timing), k.IntToFPRatio(), k.FPIntensity(), k.IntIntensity())
		fmt.Printf("  DRAM traffic: %.1f MiB read, %.1f MiB written\n",
			float64(k.DRAMReadBytes)/(1<<20), float64(k.DRAMWriteBytes)/(1<<20))
	}
}
