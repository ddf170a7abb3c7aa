package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdgs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

// netConfig carries the networked-mode flags out of main.
type netConfig struct {
	addrs    string // comma-separated shard servers (-net client mode)
	listen   string // serve mode listen address
	shards   int
	repl     int
	clients  int
	conns    int
	ops      int
	batch    int
	rows     int
	seed     int64
	jsonPath string // machine-readable results ("" = none, "-" = stdout)
	engine   engine.Options

	// traceEvery stamps a fresh wire trace id on every Nth batch per
	// client (0 disables), so a sampled slice of the run shows up in the
	// servers' /tracez span logs without tracing the whole load.
	traceEvery int

	// trace drives one traced probe after the measured load, pulls every
	// server's spans over the wire (OpTraceFetch) and prints the
	// assembled hop tree with critical path and phase attribution.
	trace bool

	// slo is a request-latency objective ("<threshold>:<target>", e.g.
	// 5ms:0.999) evaluated over the run's per-op latencies; the summary
	// prints after the run and is embedded in the -json record.
	slo string

	// chaos mode: kill/restart a shard server mid-run and keep serving.
	chaos     bool
	killEvery time.Duration // period between kills (self-hosted chaos)
	downFor   time.Duration // how long a killed server stays down
	dur       time.Duration // run for a wall-clock duration instead of -ops

	// elastic joins the -addr servers as gossip seeds — the coordinator
	// is a RouteOnly member of the epoch-versioned cluster, discovers the
	// rest of the ring by anti-entropy, and follows view changes (joins,
	// leaves, crashes) live instead of being wired to a static ring.
	elastic bool

	// resize self-hosts an elastic cluster and resizes it mid-run: a
	// member joins at one quarter of the run, another retires at half,
	// and the report breaks throughput/latency into the four windows.
	resize bool
}

// peerSet tracks the coordinator's per-server clients for the jobs the
// cluster layer doesn't do itself: one-time per-peer metrics
// registration, fanning a view change's epoch out to every connection's
// frame stamp, and the span-fetch targets for -trace. A dialed client
// is never evicted: the cluster decides which connection to an address
// it keeps (Join's seed exchanges and ensureMembers' canonical dials
// can interleave), so epoch restamps go to every client ever handed
// out — a closed one absorbs the store harmlessly, while guessing
// "latest wins" would strand the one the cluster actually uses on a
// stale stamp and bounce every request it routes.
type peerSet struct {
	mu     sync.Mutex
	reg    *obs.Registry
	epoch  uint64
	byAddr map[string][]*transport.RemoteNode
}

func newPeerSet() *peerSet {
	return &peerSet{byAddr: map[string][]*transport.RemoteNode{}}
}

func (p *peerSet) add(addr string, rn *transport.RemoteNode) {
	p.mu.Lock()
	prior := p.byAddr[addr]
	p.byAddr[addr] = append(prior, rn)
	rn.SetEpoch(p.epoch)
	if p.reg != nil && len(prior) == 0 {
		rn.RegisterMetrics(p.reg, obs.Labels{"peer": addr})
	}
	p.mu.Unlock()
}

// register exports one connection's counters per address — the newest,
// which post-Join is the one the cluster kept — and turns on
// registration for future adds (members discovered mid-run).
func (p *peerSet) register(reg *obs.Registry) {
	p.mu.Lock()
	p.reg = reg
	for addr, rns := range p.byAddr {
		rns[len(rns)-1].RegisterMetrics(reg, obs.Labels{"peer": addr})
	}
	p.mu.Unlock()
}

// setEpoch restamps every connection after a view change so the next
// frame each one sends carries the epoch the servers expect.
func (p *peerSet) setEpoch(e uint64) {
	p.mu.Lock()
	p.epoch = e
	for _, rns := range p.byAddr {
		for _, rn := range rns {
			rn.SetEpoch(e)
		}
	}
	p.mu.Unlock()
}

// peers returns one client per address (the newest): the targets of
// the -trace span fetch and of the run's metrics samples.
func (p *peerSet) peers() []*transport.RemoteNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*transport.RemoteNode, 0, len(p.byAddr))
	for _, rns := range p.byAddr {
		out = append(out, rns[len(rns)-1])
	}
	return out
}

// fleetSample flattens the bench's own registry and, fetched over the
// wire (OpMetricsFetch), the registry of every peer that answers — one
// name{labels} map per node. Sampled around the timed phase, the pair is
// what lets a run record report the work the servers did (bd_engine_*,
// bd_cluster_*, bd_transport_*), which the bench's own registry never
// sees.
func fleetSample(reg *obs.Registry, peers []*transport.RemoteNode) map[string]map[string]obs.Value {
	out := map[string]map[string]obs.Value{"bench": reg.Snapshot()}
	for _, rn := range peers {
		if snap, err := rn.FetchMetrics(); err == nil {
			out[rn.Addr()] = snap.Flatten()
		}
	}
	return out
}

// fleetDelta is the run's cluster-wide delta: obs.Delta per node, summed
// (gauges sum to cluster totals, as in obs.MergeSnapshots). Diffing per
// node rather than diffing merged totals keeps membership changes honest
// — a member that joined mid-run counts from zero, and one that left or
// died is left out instead of being subtracted.
func fleetDelta(before, after map[string]map[string]obs.Value) map[string]obs.Value {
	out := map[string]obs.Value{}
	for node, a := range after {
		for k, v := range obs.Delta(before[node], a) {
			out[k] = out[k].Add(v)
		}
	}
	return out
}

// elasticDialer is the RouteOnly coordinator's cluster.Config.Dial.
// Each member connection adopts view bounces (a RespView reply feeds
// AdoptEncodedView, then the op retries on the fresh view) and is
// stamped with the current epoch so its data frames pass the servers'
// epoch fence. coord is a pointer-to-pointer because the dialer must be
// in the Config before cluster.New returns the coordinator it closes
// over; no dial happens until Join, by which point it is set.
func elasticDialer(coord **cluster.Cluster, ps *peerSet, base transport.ClientOptions) func(string) (cluster.Remote, error) {
	return func(addr string) (cluster.Remote, error) {
		opts := base
		opts.OnView = func(view []byte) {
			if c := *coord; c != nil {
				c.AdoptEncodedView(view)
			}
		}
		rn, err := transport.Connect(addr, opts)
		if err != nil {
			return nil, err
		}
		if c := *coord; c != nil {
			rn.SetEpoch(c.ViewEpoch())
		}
		ps.add(addr, rn)
		return rn, nil
	}
}

// newElasticCoordinator builds a RouteOnly cluster member, joins it to
// the seed servers by gossip, and returns it with the peer set its
// dialer feeds. The caller owns Close.
func newElasticCoordinator(coordCfg cluster.Config, clientOpts transport.ClientOptions, seeds []string) (*cluster.Cluster, *peerSet, error) {
	ps := newPeerSet()
	var coord *cluster.Cluster
	coordCfg.RouteOnly = true
	coordCfg.Dial = elasticDialer(&coord, ps, clientOpts)
	coordCfg.OnViewChange = func(v *cluster.ClusterView) { ps.setEpoch(v.Epoch) }
	coord = cluster.New(coordCfg)
	if err := coord.Join(seeds...); err != nil {
		coord.Close()
		return nil, nil, err
	}
	return coord, ps, nil
}

// runListen hosts shard nodes for remote coordinators — bdserve embedded
// in bdbench for single-binary experiments, sharing bdserve's
// serve-and-drain flow (transport.ServeUntilSignal). Blocks until
// SIGINT/SIGTERM, then drains gracefully.
func runListen(cfg netConfig) int {
	shards := cfg.shards
	if shards <= 0 {
		shards = 1
	}
	events := obs.NewEventLog(256)
	cl := cluster.New(cluster.Config{Shards: shards, Replication: cfg.repl, Engine: cfg.engine, Events: events})
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	obs.RegisterRuntimeMetrics(reg)
	srv, err := transport.ServeUntilSignal(cfg.listen, cl, transport.ServerOptions{Metrics: reg, Events: events},
		func(s *transport.Server) {
			s.RegisterMetrics(reg)
			events.SetNode(s.Addr())
			fmt.Printf("bdbench: serving %d shards on %s\n", shards, s.Addr())
		})
	if err != nil && srv == nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		return 1
	}
	cl.Close()
	fmt.Printf("bdbench: drained; served %d requests\n", srv.Served())
	return 0
}

// chaosServer is one self-hosted shard server the chaos controller can
// crash and restart: Close() drops the listener and every connection
// (the coordinator sees the member die), reopen rebinds the same
// address over the surviving backend — the durable-storage restart
// model.
type chaosServer struct {
	addr    string
	backend *cluster.Cluster
	opts    transport.ServerOptions
	srv     *transport.Server
}

// runChaosController kills one server at a time round-robin: down for
// cfg.downFor, then restarted, with cfg.killEvery between kill times.
// It returns the kill count after stop closes.
func runChaosController(servers []*chaosServer, cfg netConfig, stop <-chan struct{}) *atomic.Int64 {
	kills := &atomic.Int64{}
	go func() {
		victim := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(cfg.killEvery):
			}
			s := servers[victim%len(servers)]
			victim++
			s.srv.Close()
			kills.Add(1)
			select {
			case <-stop:
				// Restart even on shutdown so the drain below finds a
				// live server to close.
			case <-time.After(cfg.downFor):
			}
			srv, err := transport.Listen(s.addr, s.backend, s.opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bdbench: chaos restart %s: %v\n", s.addr, err)
				return
			}
			s.srv = srv
		}
	}()
	return kills
}

// runNet drives the paper's Zipf 95/5 Cloud-OLTP mix over real sockets:
// a client-side coordinator routes to the shard servers in -addr, with
// closed-loop clients submitting batches and recording the service time
// each op rode in — the testbed measurement the in-process workloads
// cannot express.
//
// With -chaos the run is failure-aware end to end: workers tolerate the
// transient errors a dying member throws (counted as degraded batches)
// while the coordinator's prober marks it down, fails reads and writes
// over to surviving replicas, and replays hinted writes on recovery.
// Without -addr, chaos self-hosts two in-process shard servers and
// kills/restarts them on a timer; with -addr the kills are external
// (e.g. scripts/transport_smoke.sh SIGKILLing a bdserve) and bdbench
// just has to keep serving through them.
func runNet(cfg netConfig) int {
	sloThreshold, sloTarget, err := obs.ParseObjective(cfg.slo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: -slo:", err)
		return 2
	}
	addrs := splitAddrs(cfg.addrs)

	if cfg.elastic && len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "bdbench: -elastic needs -addr gossip seeds (self-hosted -chaos members are static; -resize self-hosts an elastic cluster)")
		return 2
	}

	var chaosServers []*chaosServer
	if cfg.chaos && len(addrs) == 0 {
		// Self-hosted chaos: two shard servers in-process, so one binary
		// demonstrates the whole crash/recovery cycle.
		for i := 0; i < 2; i++ {
			backend := cluster.New(cluster.Config{Shards: 1, Engine: cfg.engine})
			opts := transport.ServerOptions{Metrics: obs.NewRegistry()}
			backend.RegisterMetrics(opts.Metrics)
			srv, err := transport.Listen("127.0.0.1:0", backend, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bdbench: chaos listen:", err)
				return 1
			}
			cs := &chaosServer{addr: srv.Addr(), backend: backend, opts: opts, srv: srv}
			chaosServers = append(chaosServers, cs)
			addrs = append(addrs, cs.addr)
			defer backend.Close()
		}
		if cfg.repl < 2 {
			cfg.repl = 2 // a lone copy cannot survive its server's death
		}
	}

	coordCfg := cluster.Config{Replication: cfg.repl}
	clientOpts := transport.ClientOptions{Conns: cfg.conns}
	// With -trace the bench becomes a span-recording hop itself: the
	// coordinator's cluster spans and every client connection's
	// roundtrip spans land in one bench-side ring, merged at assembly
	// with the spans fetched from the servers.
	var benchSpans *obs.SpanLog
	if cfg.trace {
		benchSpans = obs.NewSpanLog(512)
		benchSpans.SetNode("bench")
		coordCfg.Spans = benchSpans
		clientOpts.Spans = benchSpans
	}
	if cfg.chaos {
		// Aggressive detection, fail-fast redials: with the patient
		// defaults a short outage is bridged by the client's dial-retry
		// loop and failover never engages — the run would measure a
		// stall, not the failure machinery it exists to exercise.
		coordCfg.ProbeInterval = 20 * time.Millisecond
		coordCfg.ProbeFailures = 2
		// Outage windows at full load buffer tens of thousands of missed
		// writes; size the handoff buffer so convergence doesn't shed.
		coordCfg.HintLimit = 1 << 17
		clientOpts.Timeout = 2 * time.Second
		clientOpts.DialTimeout = 100 * time.Millisecond
		clientOpts.PingTimeout = 100 * time.Millisecond
	}
	// Static mode wires every -addr server into the ring by hand; elastic
	// mode hands the same addresses to Join as gossip seeds and lets the
	// coordinator discover the ring (and every later change to it) by
	// anti-entropy.
	var coord *cluster.Cluster
	var ps *peerSet
	if cfg.elastic {
		if coord, ps, err = newElasticCoordinator(coordCfg, clientOpts, addrs); err != nil {
			fmt.Fprintf(os.Stderr, "bdbench: join %s: %v\n", cfg.addrs, err)
			return 1
		}
	} else {
		coord = cluster.NewEmpty(coordCfg)
		ps = newPeerSet()
		for _, addr := range addrs {
			rn, err := transport.Connect(addr, clientOpts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bdbench: connect %s: %v\n", addr, err)
				return 1
			}
			if _, _, err := coord.AddRemote(rn); err != nil {
				fmt.Fprintf(os.Stderr, "bdbench: join %s: %v\n", addr, err)
				return 1
			}
			ps.add(addr, rn)
		}
	}
	defer coord.Close()
	// The run's client-side observability: the coordinator's health and
	// failover counters plus each peer connection's retry/redial counters.
	// fleetSample adds every server's own registry and snapshots the lot
	// around the timed phase, so the JSON record reports exactly what the
	// measured load did on both sides of the wire. The frame-pool hit/miss
	// counters are the client side of the §12 pooled hot path, so a
	// pool-efficiency regression shows in the run record.
	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg)
	transport.RegisterPoolMetrics(reg)
	ps.register(reg)
	if coord.Nodes() == 0 {
		fmt.Fprintln(os.Stderr, "bdbench: -net needs at least one -addr shard server (or -chaos)")
		return 2
	}

	// Untimed bulk load, values pre-encoded so the timed phase measures
	// the serving path.
	vals, err := preloadResumes(coord, cfg.seed, cfg.rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: preload:", err)
		return 1
	}

	stopChaos := make(chan struct{})
	var kills *atomic.Int64
	if len(chaosServers) > 0 {
		kills = runChaosController(chaosServers, cfg, stopChaos)
	}

	const readFraction = 0.95
	// The SLO tracker reads the same histogram the workers feed; the
	// initial sample anchors the burn-rate windows at the run's start and
	// the 1s ticker gives the short windows in-run history.
	latHist := &obs.Histogram{}
	var slo *obs.SLO
	if cfg.slo != "" {
		slo = obs.NewSLO()
		slo.AddObjective(obs.Objective{
			Name: "net-oltp", Hist: latHist,
			Threshold: sloThreshold, Target: sloTarget,
		})
	}
	recs := make([]core.LatencyRecorder, cfg.clients)
	errs := make([]error, cfg.clients)
	var issued atomic.Int64
	var degraded atomic.Int64
	deadline := time.Time{}
	if cfg.dur > 0 {
		deadline = time.Now().Add(cfg.dur)
	}
	var wg sync.WaitGroup
	before := fleetSample(reg, ps.peers())
	start := time.Now()
	if slo != nil {
		slo.SampleAt(start)
		slo.Start(time.Second)
	}
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 707*int64(c+1)))
			z := rand.NewZipf(rng, 1.1, 4, uint64(cfg.rows-1))
			ops := make([]cluster.Op, 0, cfg.batch)
			consecFails := 0
			batchNo := 0
			for {
				want := cfg.batch
				if cfg.dur > 0 {
					if !time.Now().Before(deadline) {
						return
					}
					issued.Add(int64(cfg.batch))
				} else {
					n := int(issued.Add(int64(cfg.batch)))
					if n-cfg.batch >= cfg.ops {
						return
					}
					if over := n - cfg.ops; over > 0 {
						want -= over
					}
				}
				ops = ops[:0]
				for len(ops) < want {
					row := int(z.Uint64())
					key := []byte(bdgs.ResumeKey(row))
					if rng.Float64() < readFraction {
						ops = append(ops, cluster.Op{Kind: cluster.OpGet, Key: key})
					} else {
						ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: key, Value: vals[row]})
					}
				}
				if batchNo++; cfg.traceEvery > 0 && batchNo%cfg.traceEvery == 0 {
					t := obs.NewTraceID()
					for i := range ops {
						ops[i].Trace = t
					}
				}
				opStart := time.Now()
				if _, err := coord.Apply(ops); err != nil {
					if cfg.chaos {
						// Failure-aware serving: a batch that hit a dying
						// member is degraded, not fatal — the prober will
						// reroute; keep the load coming. (Without -chaos
						// any failure still aborts loudly.)
						degraded.Add(1)
						if consecFails++; consecFails < 5000 {
							time.Sleep(2 * time.Millisecond)
							continue
						}
					}
					errs[c] = err
					return
				}
				consecFails = 0
				d := time.Since(opStart)
				for range ops {
					recs[c].Record(d)
					if cfg.slo != "" {
						latHist.Observe(d)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	metricsDelta := fleetDelta(before, fleetSample(reg, ps.peers()))
	var sloReports []obs.SLOReport
	if slo != nil {
		slo.Stop()
		sloReports = slo.ReportAt(time.Now())
	}
	close(stopChaos)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
	}
	var lat core.LatencyRecorder
	for c := range recs {
		lat.Merge(&recs[c])
	}
	sum := lat.Summary()
	// With -json - the JSON record owns stdout (as in workload mode);
	// the human report is suppressed so the output stays parseable.
	if cfg.jsonPath != "-" {
		fmt.Printf("net OLTP  (%d shard servers, %d clients, batch %d, seed %d)\n",
			coord.Nodes(), cfg.clients, cfg.batch, cfg.seed)
		fmt.Printf("  processed: %d ops in %v (%d preloaded rows untimed)\n",
			sum.Count, elapsed.Round(time.Millisecond), cfg.rows)
		fmt.Printf("  OPS: %.1f ops/s\n", float64(sum.Count)/elapsed.Seconds())
		fmt.Printf("  latency: %s\n", sum)
		fmt.Printf("  remote: accepted %d, rejected %d, batches %d\n",
			metricsDelta["bd_cluster_accepted_total"].Uint(), metricsDelta["bd_cluster_rejected_total"].Uint(),
			metricsDelta["bd_cluster_batches_total"].Uint())
		for _, line := range strings.Split(strings.TrimSuffix(obs.FormatSLO(sloReports), "\n"), "\n") {
			if line != "" {
				fmt.Println(" ", line)
			}
		}
	}
	if cfg.chaos {
		// Detector verdicts and hint buffers are the coordinator's own
		// state: Stats reads them without touching the wire.
		st := coord.Stats()
		var pending, replayed, dropped uint64
		for _, ns := range st.Nodes {
			pending += ns.HintsPending
			replayed += ns.HintsReplayed
			dropped += ns.HintsDropped
		}
		killMode := "external kills"
		if kills != nil {
			killMode = fmt.Sprintf("%d kills", kills.Load())
		}
		if cfg.jsonPath != "-" {
			fmt.Printf("  chaos: %s, %d degraded batches, %d members down at exit\n",
				killMode, degraded.Load(), st.Down)
			fmt.Printf("  hints: %d replayed, %d pending, %d dropped\n",
				replayed, pending, dropped)
		}
		if kills != nil && kills.Load() == 0 {
			fmt.Fprintln(os.Stderr, "bdbench: chaos mode never killed a server (run too short?)")
			return 1
		}
	}
	var traceRec *traceReport
	if cfg.trace {
		tr, err := runTraceProbe(coord, benchSpans, ps.peers(), cfg.chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
		out := os.Stdout
		if cfg.jsonPath == "-" {
			out = os.Stderr // the JSON record owns stdout
		}
		fmt.Fprintln(out)
		tr.Format(out)
		traceRec = newTraceReport(tr)
	}
	if cfg.jsonPath != "" {
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		rec := struct {
			Mode      string  `json:"mode"`
			Shards    int     `json:"shards"`
			Clients   int     `json:"clients"`
			Ops       int     `json:"ops"`
			ElapsedNs int64   `json:"elapsedNs"`
			OpsPerSec float64 `json:"opsPerSec"`
			LatP50Us  float64 `json:"latP50Us"`
			LatP95Us  float64 `json:"latP95Us"`
			LatP99Us  float64 `json:"latP99Us"`
			LatMaxUs  float64 `json:"latMaxUs"`
			Degraded  int64   `json:"degradedBatches"`
			// Metrics is the delta across the timed phase of the bench's
			// own registry (coordinator health, per-peer
			// bd_transport_client_*) summed with every server's
			// (bd_engine_*, bd_cluster_*, bd_transport_*).
			Metrics map[string]obs.Value `json:"metrics,omitempty"`
			// SLO is the -slo objective's standing over the run (lifetime
			// compliance plus per-window burn rates).
			SLO []obs.SLOReport `json:"slo,omitempty"`
			// Trace is the -trace probe's assembled-trace summary.
			Trace *traceReport `json:"trace,omitempty"`
		}{
			Mode: "net", Shards: coord.Nodes(), Clients: cfg.clients,
			Ops: sum.Count, ElapsedNs: elapsed.Nanoseconds(),
			OpsPerSec: float64(sum.Count) / elapsed.Seconds(),
			LatP50Us:  us(sum.P50), LatP95Us: us(sum.P95),
			LatP99Us: us(sum.P99), LatMaxUs: us(sum.Max),
			Degraded: degraded.Load(),
			Metrics:  metricsDelta,
			SLO:      sloReports,
			Trace:    traceRec,
		}
		if err := writeJSONFile(cfg.jsonPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
	}
	return 0
}

// traceReport is the machine-readable summary of the -trace probe's
// assembled trace for the -json record.
type traceReport struct {
	ID             uint64           `json:"id"`
	Spans          int              `json:"spans"`
	MissingHops    int              `json:"missingHops"`
	RootNs         int64            `json:"rootNs"`
	CriticalPathNs int64            `json:"criticalPathNs"`
	CriticalPath   []string         `json:"criticalPath"`
	PhaseNs        map[string]int64 `json:"phaseNs,omitempty"`
}

func newTraceReport(tr *obs.Trace) *traceReport {
	path := tr.CriticalPath()
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Span.Name
	}
	phases := map[string]int64{}
	for name, d := range tr.PhaseAttribution() {
		phases[name] = int64(d)
	}
	return &traceReport{
		ID: tr.ID, Spans: tr.Spans, MissingHops: tr.Missing,
		RootNs:         int64(tr.Root.Span.Dur),
		CriticalPathNs: int64(tr.CriticalPathDuration()),
		CriticalPath:   names, PhaseNs: phases,
	}
}

// runTraceProbe drives one traced write+read through the coordinator
// after the measured load, then plays distributed collector: the
// bench-side ring holds the probe's root span plus the coordinator's
// cluster spans and the client connections' roundtrip spans, and every
// server's spans are pulled over the wire (OpTraceFetch) before
// assembly. The probe runs after the timed phase so the traced frames'
// extra 16 wire bytes never touch the measurement.
func runTraceProbe(coord *cluster.Cluster, ring *obs.SpanLog, peers []*transport.RemoteNode, chaos bool) (*obs.Trace, error) {
	trace := obs.NewTraceID()
	root := obs.NewSpanID()
	key := []byte("bench:trace-probe")
	ops := []cluster.Op{
		{Kind: cluster.OpPut, Key: key, Value: []byte("probe"), Trace: trace, Parent: root},
		{Kind: cluster.OpGet, Key: key, Trace: trace, Parent: root},
	}
	start := time.Now()
	_, err := coord.Apply(ops)
	for retries := 0; err != nil && chaos && retries < 100; retries++ {
		// A chaos kill can race the probe; the prober reroutes within a
		// few intervals, so retry rather than fail the report.
		time.Sleep(20 * time.Millisecond)
		_, err = coord.Apply(ops)
	}
	if err != nil {
		return nil, fmt.Errorf("traced probe: %w", err)
	}
	ring.Record(obs.Span{
		Trace: trace, ID: root, Name: "bench/probe",
		Start: start, Dur: time.Since(start),
	})
	spans := ring.ByTrace(trace)
	// A server records a hop's span before it answers, so every hop the
	// probe waited for is already in its ring; the brief poll per peer
	// only rides out a fetch that fails transiently. A peer that owns no
	// copy of the probe key times out empty, which assembles fine
	// without it.
	for _, rn := range peers {
		deadline := time.Now().Add(500 * time.Millisecond)
		for {
			remote, err := rn.FetchSpans(trace)
			if err == nil && len(remote) > 0 {
				spans = append(spans, remote...)
				break
			}
			if time.Now().After(deadline) {
				break // unreachable or nothing retained: assemble what we have
			}
			time.Sleep(time.Millisecond)
		}
	}
	tr := obs.Assemble(trace, spans)
	if tr == nil {
		return nil, fmt.Errorf("traced probe collected no spans")
	}
	return tr, nil
}

// splitAddrs parses a comma-separated -addr list, dropping blanks.
func splitAddrs(spec string) []string {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// preloadResumes bulk-loads rows generated resume records through coord
// in batches of 256, untimed, and returns their encoded values by row:
// the values the timed phase writes back and a read-back audit expects.
func preloadResumes(coord *cluster.Cluster, seed int64, rows int) ([][]byte, error) {
	var m bdgs.ResumeModel
	resumes := m.Generate(seed, rows)
	vals := make([][]byte, rows)
	load := make([]cluster.Op, 0, 256)
	for i, re := range resumes {
		vals[i] = re.Encode()
		load = append(load, cluster.Op{Kind: cluster.OpPut, Key: []byte(re.Key), Value: vals[i]})
		if len(load) == cap(load) || i == len(resumes)-1 {
			if _, err := coord.Apply(load); err != nil {
				return nil, err
			}
			load = load[:0]
		}
	}
	return vals, nil
}
