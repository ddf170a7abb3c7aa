package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/obs"
)

// The traced run. The benchmark stays outside the program, so its trace
// is a layer ladder: the same op stream is replayed by one client at
// each rung — kvstore.Store, engine.Open, in-process cluster, loopback
// transport, R=2 — and each call is one span. Spans of one request
// share its index; a rung's parent is the same request one rung up, and
// a rung's self time is its span minus its child's.

// rung is one level of the ladder: the layer whose self time it yields
// and how to stand it up, preloaded.
type rung struct {
	name  string // span name
	layer string // per-layer metric the rung's self time is reported as
	open  func(kt *keyTable) (opened, error)
}

// opened is a rung ready for a client: what to call, how to close it,
// and the topology behind it when there is one.
type opened struct {
	tg    target
	topo  *topology
	close func()
}

// bareStore is the method set kvstore.Store and engine.Engine share.
type bareStore interface {
	Get(key []byte) ([]byte, bool)
	Put(key, value []byte)
	AppendScan(dst []engine.Entry, start []byte, limit int) []engine.Entry
}

// bareTarget lets a client drive a store with no cluster above it.
type bareTarget struct{ s bareStore }

func (b bareTarget) ApplyInto(ops []cluster.Op, res []cluster.OpResult) error {
	for i, op := range ops {
		if op.Kind == cluster.OpPut {
			b.s.Put(op.Key, op.Value)
			res[i] = cluster.OpResult{}
		} else {
			res[i].Value, res[i].Found = b.s.Get(op.Key)
		}
	}
	return nil
}

func (b bareTarget) AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error) {
	return b.s.AppendScan(dst, start, limit), nil
}

func openBare(s bareStore, kt *keyTable, closeFn func()) opened {
	v := kt.newValue()
	for i, key := range kt.keys {
		kt.stamp(v, i)
		s.Put(key, v)
	}
	return opened{tg: bareTarget{s}, close: closeFn}
}

func openTopology(kt *keyTable, net bool, repl int) (opened, error) {
	t, err := buildTopology(net, repl)
	if err != nil {
		return opened{}, err
	}
	if err := t.preload(kt); err != nil {
		t.close()
		return opened{}, err
	}
	return opened{tg: t.coord, topo: t, close: t.close}, nil
}

var ladder = []rung{
	{"kvstore", "kvstore.ns_per_op", func(kt *keyTable) (opened, error) {
		return openBare(kvstore.Open(kvstore.Options{}), kt, func() {}), nil
	}},
	{"engine", "engine.ns_per_op", func(kt *keyTable) (opened, error) {
		e, err := engine.Open(engine.Options{})
		if err != nil {
			return opened{}, err
		}
		return openBare(e, kt, e.Close), nil
	}},
	{"cluster", "cluster.ns_per_op", func(kt *keyTable) (opened, error) { return openTopology(kt, false, 1) }},
	{"transport", "transport.ns_per_op", func(kt *keyTable) (opened, error) { return openTopology(kt, true, 1) }},
	{"replicate", "cluster.replicate_ns_per_op", func(kt *keyTable) (opened, error) { return openTopology(kt, true, 2) }},
}

// rungs returns the ladder up to the workload's own topology.
func (sp spec) rungs() []rung {
	switch {
	case sp.repl > 1:
		return ladder
	case sp.net:
		return ladder[:4]
	}
	return ladder[:3]
}

// span is one client call at one rung, times in ns from the traced
// run's start. Parent is the ID of the same request one rung up.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// climb replays the workload's first ladderBatches client calls at each
// rung, records the spans, reports each layer's self time per op, and
// cross-checks the top rung against the program's own wire tracing.
func climb(res *result, sp spec, opt runOptions, kt *keyTable) error {
	rs := sp.rungs()
	n := sp.ladderBatches
	spans := make([]span, 0, n*len(rs))
	epoch := time.Now()
	means := make([]float64, len(rs)) // mean span per rung, ns
	res.notef("ladder: %d calls of %d op(s), one client, fresh preloaded store per rung", n, sp.opsPerCall())
	for ri, rg := range rs {
		runtime.GC() // the previous rung's store is garbage; collect it off the clock
		o, err := rg.open(kt)
		if err != nil {
			return fmt.Errorf("%s: ladder rung %s: %w", sp.name, rg.layer, err)
		}
		c := newClient(sp, kt, opt.seed, 0) // the same stream at every rung
		var total time.Duration
		for i := 0; i < n; i++ {
			start := time.Since(epoch)
			d := c.call(o.tg)
			total += d
			s := span{ID: ri*n + i + 1, Name: rg.name, Request: i,
				Start: int64(start), End: int64(start + d)}
			if ri+1 < len(rs) {
				s.Parent = (ri+1)*n + i + 1
			}
			spans = append(spans, s)
		}
		res.Attempted += c.attempted
		res.Failed += c.failed
		means[ri] = float64(total) / float64(n)
		// Scans carry no trace id on the wire, so only point workloads
		// have a wire-tracing cross-check.
		if ri == len(rs)-1 && sp.net && !sp.scan() {
			if err := wirePhases(res, c, o.topo); err != nil {
				o.close()
				return fmt.Errorf("%s: wire tracing: %w", sp.name, err)
			}
		}
		o.close()
	}
	below := 0.0
	for ri, rg := range rs {
		self := (means[ri] - below) / float64(sp.opsPerCall())
		res.layer(rg.layer, self)
		res.notef("  %-28s span mean %10.2f us   self %10.1f ns/op", rg.layer, means[ri]/1e3, self)
		below = means[ri]
	}
	return writeSpans(filepath.Join(opt.outDir, "trace-"+sp.name+".json"), spans)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wirePhases turns on the program's existing wire tracing for a few
// calls on the top rung — a trace id on every op, span rings on both
// ends — pulls the servers' spans with FetchSpans, and prints obs'
// phase attribution (queue / exec / replicate) beside the ladder.
func wirePhases(res *result, c *client, topo *topology) error {
	const probes = 32
	c.traced = true
	defer func() { c.traced = false }()
	phases := map[string]time.Duration{}
	var root time.Duration
	assembled := 0
	for i := 0; i < probes; i++ {
		c.call(topo.coord)
		trace := c.lastTrace
		spans := topo.benchSpans.ByTrace(trace)
		for _, rn := range topo.remotes {
			// Servers record a span after flushing the response, so a
			// fetch can outrun the ring: retry briefly.
			for try := 0; try < 50; try++ {
				remote, err := rn.FetchSpans(trace)
				if err != nil {
					return err
				}
				if len(remote) > 0 {
					spans = append(spans, remote...)
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		tr := obs.Assemble(trace, spans)
		if tr == nil {
			continue
		}
		assembled++
		root += tr.Root.Span.Dur
		for name, d := range tr.PhaseAttribution() {
			phases[name] += d
		}
	}
	if assembled == 0 {
		return fmt.Errorf("no traced call could be assembled")
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	note := fmt.Sprintf("  obs phase attribution on the top rung, mean of %d traced calls: root span %.2f us =",
		assembled, float64(root)/float64(assembled)/1e3)
	for _, name := range names {
		note += fmt.Sprintf("  %s %.2f us", name, float64(phases[name])/float64(assembled)/1e3)
	}
	res.notef("%s", note)
	return nil
}

// traceOverhead measures what the program's wire tracing costs: two
// back-to-back closed-loop passes on the workload's topology, the
// second with a trace id on every batch, and 1 − traced/untraced.
func traceOverhead(res *result, t *topology, cs []*client, opt runOptions) {
	dur := time.Duration(opt.seconds / 4 * float64(time.Second))
	rate := func(traced bool) float64 {
		for _, c := range cs {
			c.traced = traced
		}
		calls := 0
		for _, ws := range closedLoop(t.coord, cs, dur, 1) {
			calls += ws[0].calls
		}
		return float64(calls) / dur.Seconds()
	}
	untraced := rate(false)
	traced := rate(true)
	for _, c := range cs {
		c.traced = false
	}
	res.layer("obs.trace_overhead_frac", 1-traced/untraced)
}

// openLoop is the diagnostic open-loop pass: each client follows its own
// fixed schedule, a call's latency runs from when it was due, and the
// generator's own lateness (sent − due) is reported beside it. On this
// two-core sandbox the lateness is most of the latency, which is why
// the gated runs are closed-loop.
func openLoop(res *result, t *topology, cs []*client, sp spec, opt runOptions) {
	dur := time.Duration(min(5, opt.seconds/2) * float64(time.Second))
	interval := time.Duration(float64(len(cs)*sp.opsPerCall()) / sp.openLoopRate * float64(time.Second))
	lats := make([]core.LatencyRecorder, len(cs))
	lates := make([]core.LatencyRecorder, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := time.Duration(k) * interval
				if due >= dur {
					return
				}
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				c.call(t.coord)
				lates[i].Record(sent - due)
				lats[i].Record(time.Since(start) - due)
			}
		}()
	}
	wg.Wait()
	var lat, late core.LatencyRecorder
	for i := range cs {
		lat.Merge(&lats[i])
		late.Merge(&lates[i])
	}
	res.layer("gen.ol_p50_us", micros(lat.Percentile(0.50)))
	res.layer("gen.ol_p99_us", micros(lat.Percentile(0.99)))
	res.layer("gen.late_p50_us", micros(late.Percentile(0.50)))
}

// tracedPasses runs the passes that need the workload's own topology.
// They follow the timed windows and never overlap them.
func tracedPasses(res *result, sp spec, opt runOptions, t *topology, cs []*client) {
	if !sp.scan() { // scans carry no trace id on the wire
		traceOverhead(res, t, cs, opt)
	}
	if sp.openLoopRate > 0 {
		openLoop(res, t, cs, sp, opt)
	}
	for _, c := range cs {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
}
