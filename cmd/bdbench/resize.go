package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdgs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Resize-run tuning. The migration rate is deliberately modest so the
// "during" windows actually overlap the copy passes on the default
// 10k-row dataset (a few MiB): fast enough to settle within a quarter
// of the default 8s run, slow enough to show up in it.
const (
	resizeProbeInterval = 25 * time.Millisecond
	resizeMigrateRate   = 4 << 20
)

// resizeWindowNames labels the four measurement windows: steady state
// on the two seed members, a third member joining and pulling its
// keyranges, an original member draining out gracefully, and the
// settled resized cluster.
var resizeWindowNames = [4]string{"before", "join-migration", "leave-drain", "after"}

// resizeMember is one self-hosted elastic data node: its own engine,
// cluster and transport server, joined to the others by gossip exactly
// as a separate `bdserve -join` process would be.
type resizeMember struct {
	addr string
	cl   *cluster.Cluster
	srv  *transport.Server
}

func startResizeMember(cfg netConfig, seeds []string) (*resizeMember, error) {
	// Bind before cluster.New: the member's ring identity is its
	// resolved listen address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		Shards: 1, Replication: cfg.repl, Engine: cfg.engine,
		SelfAddr:      ln.Addr().String(),
		ProbeInterval: resizeProbeInterval,
		ProbeFailures: 2,
		MigrateRate:   resizeMigrateRate,
		Dial: func(addr string) (cluster.Remote, error) {
			return transport.Connect(addr, transport.ClientOptions{
				Timeout:     2 * time.Second,
				DialTimeout: 250 * time.Millisecond,
				PingTimeout: 250 * time.Millisecond,
				// A peer that bounces our forward (its ring disagrees)
				// answers with its view: adopt it so the next probe round
				// is not the only path to convergence.
				OnView: func(view []byte) {
					if cl != nil {
						_ = cl.AdoptEncodedView(view)
					}
				},
			})
		},
	})
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	srv := transport.Serve(ln, cl, transport.ServerOptions{Metrics: reg})
	m := &resizeMember{addr: ln.Addr().String(), cl: cl, srv: srv}
	if len(seeds) > 0 {
		if err := cl.Join(seeds...); err != nil {
			srv.Close()
			cl.Close()
			return nil, err
		}
	}
	return m, nil
}

func (m *resizeMember) close() {
	m.srv.Close()
	m.cl.Close()
}

// waitConverged polls until every given cluster reports the same epoch
// with migration settled — the convergence proof the elastic design
// owes: bounded probe rounds after the last membership change, every
// live node agrees on ownership. Returns the last epoch seen.
func waitConverged(timeout time.Duration, cls ...*cluster.Cluster) (uint64, bool) {
	deadline := time.Now().Add(timeout)
	for {
		epoch := cls[0].ViewEpoch()
		agreed := cls[0].Settled()
		for _, c := range cls[1:] {
			if c.ViewEpoch() != epoch || !c.Settled() {
				agreed = false
			}
		}
		if agreed {
			return epoch, true
		}
		if time.Now().After(deadline) {
			return epoch, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// onRingMembers counts the view rows that currently own ring arcs and
// are not failure-suspected dead weight (Alive or Suspect).
func onRingMembers(c *cluster.Cluster) int {
	n := 0
	for _, m := range c.View().Members {
		if m.Status == cluster.StatusAlive || m.Status == cluster.StatusSuspect {
			n++
		}
	}
	return n
}

// resizeWindow is one measurement window's slice of the run record.
type resizeWindow struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"opsPerSec"`
	LatP50Us  float64 `json:"latP50Us"`
	LatP99Us  float64 `json:"latP99Us"`
	LatMaxUs  float64 `json:"latMaxUs"`
}

// runResize measures elasticity itself: the Zipf 95/5 mix runs
// continuously while the cluster resizes under it. Two self-hosted
// members serve the first quarter of the run; a third joins at the
// quarter mark (throttled migration pulls its keyranges while traffic
// continues); an original member leaves gracefully at the half; the
// final quarter measures the settled resized cluster. The report
// breaks throughput and latency into those four windows and finishes
// with the two checks that make the run a proof rather than a demo:
// all survivors agree on one settled epoch, and every preloaded row
// reads back intact — zero lost acknowledged writes.
func runResize(cfg netConfig) int {
	if cfg.addrs != "" {
		fmt.Fprintln(os.Stderr, "bdbench: -resize self-hosts its servers; drop -addr (use -net -elastic to drive external ones)")
		return 2
	}
	dur := cfg.dur
	if dur <= 0 {
		dur = 8 * time.Second
	}
	window := dur / 4

	a, err := startResizeMember(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: start member:", err)
		return 1
	}
	defer a.close()
	b, err := startResizeMember(cfg, []string{a.addr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: start member:", err)
		return 1
	}
	// b is closed by the leave sequence mid-run; the handle stays live
	// for its migration counters.
	defer b.cl.Close()
	if _, ok := waitConverged(5*time.Second, a.cl, b.cl); !ok {
		fmt.Fprintln(os.Stderr, "bdbench: seed members never converged")
		return 1
	}

	coordCfg := cluster.Config{
		Replication:   cfg.repl,
		ProbeInterval: resizeProbeInterval,
		ProbeFailures: 2,
	}
	clientOpts := transport.ClientOptions{
		Conns: cfg.conns, Timeout: 2 * time.Second,
		DialTimeout: 250 * time.Millisecond, PingTimeout: 250 * time.Millisecond,
	}
	coord, ps, err := newElasticCoordinator(coordCfg, clientOpts, []string{a.addr, b.addr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: join:", err)
		return 1
	}
	defer coord.Close()
	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg)
	transport.RegisterPoolMetrics(reg)
	ps.register(reg)

	// Untimed bulk load through the coordinator, values retained for the
	// final read-back audit.
	vals, err := preloadResumes(coord, cfg.seed, cfg.rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdbench: preload:", err)
		return 1
	}

	const readFraction = 0.95
	recs := make([][4]core.LatencyRecorder, cfg.clients)
	errs := make([]error, cfg.clients)
	var degraded atomic.Int64
	var phase atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	before := fleetSample(reg, ps.peers())
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 919*int64(c+1)))
			z := rand.NewZipf(rng, 1.1, 4, uint64(cfg.rows-1))
			ops := make([]cluster.Op, 0, cfg.batch)
			consecFails := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops = ops[:0]
				for len(ops) < cfg.batch {
					row := int(z.Uint64())
					key := []byte(bdgs.ResumeKey(row))
					if rng.Float64() < readFraction {
						ops = append(ops, cluster.Op{Kind: cluster.OpGet, Key: key})
					} else {
						ops = append(ops, cluster.Op{Kind: cluster.OpPut, Key: key, Value: vals[row]})
					}
				}
				opStart := time.Now()
				if _, err := coord.Apply(ops); err != nil {
					// Failure-aware by construction: a batch racing a view
					// change is degraded, not fatal — the next attempt
					// rides the adopted view.
					degraded.Add(1)
					if consecFails++; consecFails < 20000 {
						time.Sleep(time.Millisecond)
						continue
					}
					errs[c] = err
					return
				}
				consecFails = 0
				d := time.Since(opStart)
				w := phase.Load()
				for range ops {
					recs[c][w].Record(d)
				}
			}
		}(c)
	}

	// The resize timeline, quarter by quarter.
	wStart := [4]time.Time{start}
	time.Sleep(window)
	joiner, joinErr := startResizeMember(cfg, []string{a.addr})
	wStart[1] = time.Now()
	phase.Store(1)
	if joinErr != nil {
		close(stop)
		wg.Wait()
		fmt.Fprintln(os.Stderr, "bdbench: mid-run join:", joinErr)
		return 1
	}
	defer joiner.close()
	time.Sleep(window)
	wStart[2] = time.Now()
	phase.Store(2)
	leaveDone := make(chan error, 1)
	go func() {
		// Graceful leave drains b's keyranges out before it declares
		// Left; the server stays up through the drain (peer fallbacks
		// and gossip still land on it) and closes after.
		lerr := b.cl.Leave(window + 5*time.Second)
		b.srv.Close()
		leaveDone <- lerr
	}()
	time.Sleep(window)
	wStart[3] = time.Now()
	phase.Store(3)
	time.Sleep(window)
	close(stop)
	wg.Wait()
	end := time.Now()
	elapsed := end.Sub(start)
	metricsDelta := fleetDelta(before, fleetSample(reg, ps.peers()))
	for _, werr := range errs {
		if werr != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", werr)
			return 1
		}
	}
	if lerr := <-leaveDone; lerr != nil {
		fmt.Fprintln(os.Stderr, "bdbench: leave:", lerr)
		return 1
	}

	// Convergence proof: the survivors and the coordinator agree on one
	// settled epoch within bounded probe rounds of the last change.
	convStart := time.Now()
	epoch, converged := waitConverged(10*time.Second, a.cl, joiner.cl, coord)
	convergeNs := time.Since(convStart)
	live := onRingMembers(coord)
	if !converged {
		// No point auditing ownership the members disagree on; report
		// the disagreement itself.
		for name, c := range map[string]*cluster.Cluster{"a": a.cl, "b": b.cl, "joiner": joiner.cl, "coord": coord} {
			fmt.Fprintf(os.Stderr, "bdbench: %-6s epoch %d settled %v members %d\n",
				name, c.ViewEpoch(), c.Settled(), len(c.View().Members))
		}
		fmt.Fprintln(os.Stderr, "bdbench: cluster never converged after resize")
		return 1
	}

	// Zero-lost-acknowledged-writes audit: every preloaded row must read
	// back intact through the resized cluster. The run only ever writes
	// vals[row] back, so any mismatch is a lost or corrupted write.
	lost := 0
	check := make([]cluster.Op, 0, 256)
	checkRows := make([]int, 0, 256)
	flushAudit := func() bool {
		res, aerr := coord.Apply(check)
		if aerr != nil {
			fmt.Fprintln(os.Stderr, "bdbench: audit:", aerr)
			return false
		}
		for j, r := range res {
			if !r.Found || !bytes.Equal(r.Value, vals[checkRows[j]]) {
				lost++
			}
		}
		check = check[:0]
		checkRows = checkRows[:0]
		return true
	}
	for i := range vals {
		check = append(check, cluster.Op{Kind: cluster.OpGet, Key: []byte(bdgs.ResumeKey(i))})
		checkRows = append(checkRows, i)
		if len(check) == cap(check) && !flushAudit() {
			return 1
		}
	}
	if len(check) > 0 && !flushAudit() {
		return 1
	}

	migKeys, migBytes, migDropped := uint64(0), uint64(0), uint64(0)
	for _, c := range []*cluster.Cluster{a.cl, b.cl, joiner.cl} {
		k, by, dr := c.MigrationStats()
		migKeys += k
		migBytes += by
		migDropped += dr
	}

	windows := make([]resizeWindow, 4)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for w := range windows {
		var lat core.LatencyRecorder
		for c := range recs {
			lat.Merge(&recs[c][w])
		}
		wEnd := end
		if w < 3 {
			wEnd = wStart[w+1]
		}
		sum := lat.Summary()
		windows[w] = resizeWindow{
			Name: resizeWindowNames[w], Ops: sum.Count,
			OpsPerSec: float64(sum.Count) / wEnd.Sub(wStart[w]).Seconds(),
			LatP50Us:  us(sum.P50), LatP99Us: us(sum.P99), LatMaxUs: us(sum.Max),
		}
	}

	if cfg.jsonPath != "-" {
		fmt.Printf("net OLTP resize  (2 members +1 join -1 leave, %d clients, batch %d, seed %d)\n",
			cfg.clients, cfg.batch, cfg.seed)
		fmt.Printf("  elapsed: %v (%d preloaded rows untimed)\n", elapsed.Round(time.Millisecond), cfg.rows)
		for _, w := range windows {
			fmt.Printf("  %-15s %9.1f ops/s  p50 %7.0fus  p99 %7.0fus  (%d ops)\n",
				w.Name+":", w.OpsPerSec, w.LatP50Us, w.LatP99Us, w.Ops)
		}
		fmt.Printf("  migration: %d keys, %d bytes pushed, %d dropped post-settle\n",
			migKeys, migBytes, migDropped)
		fmt.Printf("  convergence: epoch %d, %d live members, settled in %v (%d degraded batches)\n",
			epoch, live, convergeNs.Round(time.Millisecond), degraded.Load())
		fmt.Printf("  audit: %d/%d rows intact, %d lost\n", cfg.rows-lost, cfg.rows, lost)
	}
	if cfg.jsonPath != "" {
		rec := struct {
			Mode       string         `json:"mode"`
			Clients    int            `json:"clients"`
			Batch      int            `json:"batch"`
			Rows       int            `json:"rows"`
			ElapsedNs  int64          `json:"elapsedNs"`
			Windows    []resizeWindow `json:"windows"`
			Epoch      uint64         `json:"epoch"`
			Members    int            `json:"liveMembers"`
			Converged  bool           `json:"converged"`
			ConvergeNs int64          `json:"convergeNs"`
			MigKeys    uint64         `json:"migratedKeys"`
			MigBytes   uint64         `json:"migratedBytes"`
			MigDropped uint64         `json:"droppedKeys"`
			Degraded   int64          `json:"degradedBatches"`
			LostKeys   int            `json:"lostKeys"`
			// Metrics is the coordinator-side obs registry delta across
			// the timed phase (bd_cluster_* epoch/gossip/migration
			// series included).
			Metrics map[string]obs.Value `json:"metrics,omitempty"`
		}{
			Mode: "resize", Clients: cfg.clients, Batch: cfg.batch, Rows: cfg.rows,
			ElapsedNs: elapsed.Nanoseconds(), Windows: windows,
			Epoch: epoch, Members: live, Converged: converged,
			ConvergeNs: int64(convergeNs),
			MigKeys:    migKeys, MigBytes: migBytes, MigDropped: migDropped,
			Degraded: degraded.Load(), LostKeys: lost,
			Metrics: metricsDelta,
		}
		if err := writeJSONFile(cfg.jsonPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bdbench:", err)
			return 1
		}
	}
	switch {
	case !converged:
		fmt.Fprintf(os.Stderr, "bdbench: cluster never converged (epochs %d/%d/%d, coord %d)\n",
			a.cl.ViewEpoch(), b.cl.ViewEpoch(), joiner.cl.ViewEpoch(), coord.ViewEpoch())
		return 1
	case live != 2:
		fmt.Fprintf(os.Stderr, "bdbench: expected 2 live members after resize, have %d\n", live)
		return 1
	case lost > 0:
		fmt.Fprintf(os.Stderr, "bdbench: %d acknowledged writes lost across the resize\n", lost)
		return 1
	case migKeys == 0:
		fmt.Fprintln(os.Stderr, "bdbench: resize moved no keys (migration never ran?)")
		return 1
	}
	return 0
}
