// Command bdserve hosts cluster shard nodes behind the binary wire
// protocol (internal/transport) — the region-server daemon of the
// paper's testbed. A coordinator in another process joins it with
// bdbench -net or transport.Connect + cluster.AddRemote. Unless -exec
// is disabled, the daemon also hosts an analytics task executor
// (internal/analytics), so distributed offline-analytics jobs can run
// where the shard data lives (bdbench -analytics).
//
// Examples:
//
//	bdserve -addr 127.0.0.1:7421
//	bdserve -addr :7421 -shards 2 -blockcache 1048576
//	bdserve -addr :7421 -shards 4 -replication 2
//	bdserve -addr :7421 -livez 127.0.0.1:7431 -pprof -slowreq 50ms
//	bdserve -addr :7421 -taskslots 4 -advertise 10.0.0.3:7421
//	bdserve -addr :7422 -join 127.0.0.1:7421        (elastic: live-join a running cluster)
//	bdserve -addr :7421 -elastic -replication 2     (elastic: first node, seeds the view)
//
// Elastic mode (-elastic, or implied by -join) hosts exactly one shard
// whose ring identity derives from the advertised address. Membership is
// an epoch-versioned view disseminated by gossip on the health-probe
// sweep: nodes join live (-join seeds), leave gracefully on
// SIGINT/SIGTERM (keyranges migrate out first, throttled to
// -migraterate), and crashed peers are declared dead and healed around.
//
// Liveness is exposed twice: on the wire (the OpPing frame, answered
// even under full admission — coordinators probe it to drive failover),
// and optionally over HTTP with -livez for orchestrators that speak
// health checks, not the binary protocol. The -livez mux is the node's
// whole observability surface (DESIGN.md §11):
//
//	GET /livez    200 "ok" while the process lives
//	GET /statz    JSON stats of this process's nodes (served/shed +
//	              per-node counters, hint and engine stats included;
//	              the cluster-wide view is /clusterz)
//	GET /metrics  Prometheus text: bd_transport_*, bd_cluster_*,
//	              bd_engine_*, bd_analytics_* families
//	GET /tracez   recent traced-request spans as JSON (?trace=<id>
//	              filters to one trace; &format=chrome renders the
//	              selection as Chrome trace-event JSON for Perfetto /
//	              chrome://tracing)
//	GET /slowz    recent requests at or over -slowreq
//	GET /sloz     SLO compliance + multi-window burn rates, with -slo
//	GET /clusterz federated cluster metrics (DESIGN.md §15): every live
//	              member's registry pulled over the wire and merged
//	              exactly — Prometheus text by default, ?format=json
//	              for per-node snapshots + errors
//	GET /eventz   merged cross-node event timeline (view commits,
//	              member transitions, failovers, hints, migration)
//	GET /historyz retained snapshot ring; ?rate=<series>&lookback=30s
//	              answers a counter's per-second rate from local history
//	/debug/pprof  Go profiling handlers, only with -pprof
//
// The server and its cluster coordinator record into one shared span
// ring, so /tracez — and the OpTraceFetch opcode collectors use — serve
// every hop this process touched: the server dispatch span and the
// cluster-layer write/replication spans under it.
//
// SIGINT/SIGTERM drain gracefully: stop accepting, finish every admitted
// request, flush responses, then exit 0 with a served-request summary.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7421", "listen address")
		shards    = flag.Int("shards", 1, "cluster nodes hosted by this server")
		repl      = flag.Int("replication", 1, "copies per key across the hosted nodes")
		bcache    = flag.Int("blockcache", 0, "block-cache bytes per engine (0 = default, negative disables)")
		livez     = flag.String("livez", "", "optional HTTP observability address (GET /livez, /statz, /metrics, /tracez, /slowz)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -livez mux")
		slowReq   = flag.Duration("slowreq", 0, "record requests at or over this service time to /slowz (0 disables)")
		sloSpec   = flag.String("slo", "", "request-latency SLO as <threshold>:<target>, e.g. 5ms:0.999 (serves /sloz on the -livez mux)")
		execOn    = flag.Bool("exec", true, "host an analytics task executor on this server")
		taskSlots = flag.Int("taskslots", 0, "concurrent analytics tasks (0 = executor default)")
		advertise = flag.String("advertise", "", "address peers fetch shuffle data from (default: the resolved listen address)")
		quiet     = flag.Bool("quiet", false, "suppress the startup and shutdown banners")

		elasticOn = flag.Bool("elastic", false, "host one elastic membership node (epoch-versioned view, live join/leave); implied by -join")
		joinSeeds = flag.String("join", "", "comma-separated seed addresses to join an elastic cluster through")
		migRate   = flag.Int("migraterate", 0, "online-migration throttle in bytes/s (0 = cluster default, negative disables)")
		probeIvl  = flag.Duration("probe", 0, "health-probe and gossip sweep period (0 = cluster default)")
		leaveOn   = flag.Bool("leave", true, "leave the cluster gracefully on SIGINT/SIGTERM, migrating data out first (elastic mode)")
		leaveWait = flag.Duration("leavetimeout", 30*time.Second, "bound on the graceful-leave drain")
	)
	flag.Parse()
	elastic := *elasticOn || *joinSeeds != ""
	if elastic && *shards != 1 {
		fmt.Fprintln(os.Stderr, "bdserve: -elastic hosts exactly one shard per process; drop -shards")
		os.Exit(2)
	}
	if *pprofOn && *livez == "" {
		fmt.Fprintln(os.Stderr, "bdserve: -pprof needs -livez (the profiling handlers live on that mux)")
		os.Exit(2)
	}
	if *sloSpec != "" && *livez == "" {
		fmt.Fprintln(os.Stderr, "bdserve: -slo needs -livez (/sloz lives on that mux)")
		os.Exit(2)
	}
	sloThreshold, sloTarget, err := obs.ParseObjective(*sloSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdserve: -slo:", err)
		os.Exit(2)
	}

	// One span ring for the whole process: the transport server and the
	// cluster coordinator both record into it, so a collector fetching
	// this node's spans (OpTraceFetch, /tracez) sees every layer's hops.
	spans := obs.NewSpanLog(transport.DefaultTraceBuffer)
	// Bind both listeners before serving anything: a bad -livez address
	// must fail the process at startup, not log from a goroutine after
	// the daemon already reported itself healthy on the wire. The data
	// listener binds before the cluster exists because an elastic node's
	// ring identity is its resolved advertised address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdserve:", err)
		os.Exit(1)
	}
	// Spans fetched from this process name their hop after the resolved
	// listen address (only known once the listener is bound).
	spans.SetNode(ln.Addr().String())
	// selfAddr is how peers (and the federation) name this node: the
	// advertised address when set, else the resolved listen address.
	selfAddr := *advertise
	if selfAddr == "" {
		selfAddr = ln.Addr().String()
	}
	// One event ring for the whole process: the cluster coordinator
	// records lifecycle transitions into it, OpEventsFetch and /eventz
	// serve it, and the federation merges it with the peers' rings.
	events := obs.NewEventLog(256)
	events.SetNode(selfAddr)
	// clPtr hands the cluster to the Dial callback, which outlives this
	// scope and may fire (view bounces) before cl is assigned.
	var clPtr atomic.Pointer[cluster.Cluster]
	clCfg := cluster.Config{
		Shards:        *shards,
		Replication:   *repl,
		ProbeInterval: *probeIvl,
		Engine:        engine.Options{BlockCacheBytes: *bcache},
		Spans:         spans,
		Events:        events,
	}
	if elastic {
		clCfg.SelfAddr = selfAddr
		clCfg.MigrateRate = *migRate
		clCfg.Dial = func(peer string) (cluster.Remote, error) {
			return transport.Connect(peer, transport.ClientOptions{
				// A dead peer must fail a probe in well under a sweep,
				// not after the default multi-second dial-retry window:
				// the declare-dead clock counts sweeps, so slow failures
				// would stretch detection by their own timeout.
				Timeout:     2 * time.Second,
				DialTimeout: 250 * time.Millisecond,
				PingTimeout: 250 * time.Millisecond,
				// Adopt the view a peer bounces a stale-epoch forward
				// with, so convergence does not wait on a probe round.
				OnView: func(view []byte) {
					if cl := clPtr.Load(); cl != nil {
						_ = cl.AdoptEncodedView(view)
					}
				},
			})
		}
	}
	cl := cluster.New(clCfg)
	clPtr.Store(cl)
	var livezLn net.Listener
	if *livez != "" {
		livezLn, err = net.Listen("tcp", *livez)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdserve: livez:", err)
			os.Exit(1)
		}
	}
	var ex *analytics.Executor
	srvOpts := transport.ServerOptions{
		SlowRequest: *slowReq,
		Spans:       spans,
	}
	if *execOn {
		ex = analytics.NewExecutor(analytics.ExecutorConfig{
			Self:          selfAddr,
			Local:         cl,
			MaxConcurrent: *taskSlots,
		})
		srvOpts.Tasks = ex
	}
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	transport.RegisterPoolMetrics(reg)
	obs.RegisterRuntimeMetrics(reg)
	if ex != nil {
		ex.RegisterMetrics(reg)
	}
	// The full registry (transport series join it in onReady below) is
	// what OpMetricsFetch snapshots, so a federating peer sees exactly
	// this node's /metrics page.
	srvOpts.Metrics = reg
	srvOpts.Events = events
	// Per-node time-series retention: ten minutes of 5s captures, so
	// /historyz answers rates without an external TSDB.
	hist := obs.NewHistory(120)
	go watchCompactions(cl, events)
	var onSignal func()
	if elastic && *leaveOn {
		onSignal = func() {
			// Leave before the server drains: peers pull our keyranges and
			// read our fallbacks through this still-live server.
			if !*quiet {
				fmt.Printf("bdserve: leaving cluster (epoch %d)\n", cl.ViewEpoch())
			}
			if err := cl.Leave(*leaveWait); err != nil {
				fmt.Fprintln(os.Stderr, "bdserve: leave:", err)
			}
		}
	}
	srv, err := transport.ServeListenerUntilSignalHook(ln, cl, srvOpts,
		func(s *transport.Server) {
			s.RegisterMetrics(reg)
			// Sample only once every series is registered, so the oldest
			// retained capture can rate any of them.
			hist.Start(reg, selfAddr, 5*time.Second)
			var slo *obs.SLO
			if sloThreshold > 0 {
				slo = obs.NewSLO()
				slo.AddObjective(obs.Objective{
					Name:      "requests",
					Hist:      s.RequestLatency(),
					Threshold: sloThreshold,
					Target:    sloTarget,
				})
				slo.Start(10 * time.Second)
			}
			if livezLn != nil {
				fed := obs.NewFederator(obs.FederatorConfig{
					Self:     obs.RegistryFetcher{Node: selfAddr, Registry: reg, Events: events},
					SelfAddr: selfAddr,
					Members:  cl.MemberAddrs,
					Dial: func(peer string) (obs.Fetcher, error) {
						return transport.Connect(peer, transport.ClientOptions{
							Timeout:     2 * time.Second,
							DialTimeout: 250 * time.Millisecond,
						})
					},
				})
				go serveLivez(livezLn, s, cl, reg, slo, fed, hist, *pprofOn)
			}
			if seeds := splitSeeds(*joinSeeds); len(seeds) > 0 {
				// Join after the server is up so the seeds can dial back.
				go joinCluster(cl, seeds, *quiet)
			}
			if !*quiet {
				if elastic {
					fmt.Printf("bdserve: listening on %s (elastic member, R=%d, epoch %d, executor %v)\n",
						s.Addr(), *repl, cl.ViewEpoch(), *execOn)
				} else {
					fmt.Printf("bdserve: listening on %s (%d shards, R=%d, executor %v)\n",
						s.Addr(), *shards, *repl, *execOn)
				}
			}
		}, onSignal)
	if err != nil && srv == nil {
		fmt.Fprintln(os.Stderr, "bdserve:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdserve: close:", err)
	}
	st := cl.Stats()
	if ex != nil {
		ex.Close()
	}
	cl.Close()
	if !*quiet {
		fmt.Printf("bdserve: drained; served %d requests (%d shed), %d ops across %d nodes\n",
			srv.Served(), srv.Shed(), st.Ops, len(st.Nodes))
	}
}

// splitSeeds parses the -join flag's comma-separated address list.
func splitSeeds(spec string) []string {
	var seeds []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// joinCluster runs the join exchange against the seed list, retrying
// with backoff so a fleet can start in any order. A node that never
// reaches a seed keeps serving as its own one-member cluster — the
// seeds will also find it if any of them learns its address.
func joinCluster(cl *cluster.Cluster, seeds []string, quiet bool) {
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		err := cl.Join(seeds...)
		if err == nil {
			if !quiet {
				fmt.Printf("bdserve: joined via %s (epoch %d)\n", strings.Join(seeds, ","), cl.ViewEpoch())
			}
			return
		}
		time.Sleep(backoff)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	fmt.Fprintf(os.Stderr, "bdserve: join: no seed reachable after retries (%s)\n", strings.Join(seeds, ","))
}

// statzSnapshot is the /statz response shape: the server's wire-level
// totals plus the snapshot of this process's nodes — every NodeStats
// field, hinted-handoff and engine counters included — in one document.
// Nothing in it crosses the wire; the cluster-wide view is /clusterz.
type statzSnapshot struct {
	Served  uint64        `json:"served"`
	Shed    uint64        `json:"shed"`
	Cluster cluster.Stats `json:"cluster"`
}

// serveLivez hosts the HTTP observability surface next to the wire
// protocol on an already-bound listener. It runs for the life of the
// process; the daemon's graceful drain does not wait on it (liveness
// during drain is a feature — the process is alive until it exits).
func serveLivez(ln net.Listener, srv *transport.Server, cl *cluster.Cluster,
	reg *obs.Registry, slo *obs.SLO, fed *obs.Federator, hist *obs.History, pprofOn bool) {
	mux := http.NewServeMux()
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = core.EncodeJSON(w, statzSnapshot{
			Served:  srv.Served(),
			Shed:    srv.Shed(),
			Cluster: cl.Stats(),
		})
	})
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/clusterz", func(w http.ResponseWriter, r *http.Request) {
		// Every hit is one fresh federation poll: ask the view who is
		// alive, fetch everyone in parallel, merge. Down members appear
		// in errors; the merge covers the rest.
		f := fed.Poll()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = core.EncodeJSON(w, f)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# Federated from %d nodes at %s\n", len(f.Nodes), f.When.Format(time.RFC3339))
		for addr, msg := range f.Errors {
			fmt.Fprintf(w, "# UNREACHABLE %s: %s\n", addr, msg)
		}
		_ = f.Merged.WritePrometheus(w)
	})
	mux.HandleFunc("/eventz", func(w http.ResponseWriter, r *http.Request) {
		f := fed.Poll()
		type eventz struct {
			When   time.Time         `json:"when"`
			Events []obs.Event       `json:"events"`
			Errors map[string]string `json:"errors,omitempty"`
		}
		w.Header().Set("Content-Type", "application/json")
		_ = core.EncodeJSON(w, eventz{When: f.When, Events: f.Events, Errors: f.Errors})
	})
	mux.HandleFunc("/historyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		q := r.URL.Query()
		if name := q.Get("rate"); name != "" {
			lookback, _ := time.ParseDuration(q.Get("lookback"))
			rate, ok := hist.Rate(name, q.Get("labels"), lookback)
			_ = core.EncodeJSON(w, map[string]any{"name": name, "rate": rate, "ok": ok})
			return
		}
		pts := hist.Points()
		type point struct {
			When time.Time `json:"when"`
		}
		out := make([]point, len(pts))
		for i, p := range pts {
			out[i] = point{When: p.When}
		}
		_ = core.EncodeJSON(w, map[string]any{"points": len(pts), "times": out})
	})
	mux.Handle("/tracez", spanHandler(srv.Spans()))
	mux.Handle("/slowz", spanHandler(srv.SlowLog()))
	if slo != nil {
		mux.Handle("/sloz", slo.Handler())
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if err := http.Serve(ln, mux); err != nil {
		fmt.Fprintln(os.Stderr, "bdserve: livez:", err)
	}
}

// watchCompactions folds the local engine's compaction counter into the
// event timeline: one event per poll that saw passes run, with the
// delta in the detail. Polling (rather than hooking the engine) keeps
// the engine layer free of observability plumbing; 2s granularity is
// plenty for a timeline. The goroutine lives as long as the process.
func watchCompactions(cl *cluster.Cluster, events *obs.EventLog) {
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	last := cl.LocalEngineStats().Compactions
	for range t.C {
		now := cl.LocalEngineStats().Compactions
		if now > last {
			events.Record(obs.Event{
				Kind:   obs.EventCompaction,
				Detail: fmt.Sprintf("%d compaction passes", now-last),
			})
		}
		last = now
	}
}

// spanHandler serves a span ring as JSON, oldest first. ?trace=<id>
// (decimal, as Span.Trace marshals) filters to one trace, and
// ?format=chrome renders the selection as Chrome trace-event JSON —
// load it in Perfetto or chrome://tracing for a per-node timeline with
// phase sub-slices.
func spanHandler(log *obs.SpanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := log.Spans()
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			spans = log.ByTrace(id)
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
			_ = obs.WriteChromeTrace(w, spans)
			return
		}
		type spanz struct {
			Total uint64     `json:"total"`
			Spans []obs.Span `json:"spans"`
		}
		w.Header().Set("Content-Type", "application/json")
		_ = core.EncodeJSON(w, spanz{Total: log.Total(), Spans: spans})
	})
}
