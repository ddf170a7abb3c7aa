package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// runOptions are what a caller may vary about a run; the workload's
// shape is the spec's.
type runOptions struct {
	seed    int64
	seconds float64 // timed phase; also scales the warm-up and traced passes
	trace   bool    // add the traced passes (ladder, wire tracing, open loop)
	shrink  int     // divide data sizes (tests)
	outDir  string  // where the traced run writes span files
}

// oneSetUp reports whether the run sets up once instead of repeatedly:
// the traced run and the tests' smoke runs report no setup_s.
func (o runOptions) oneSetUp() bool { return o.trace || o.shrink > 1 }

// warmup is the untimed closed-loop phase before the windows: it fills
// the block cache and settles the LSM shape the preload left behind.
func (o runOptions) warmup() time.Duration {
	return time.Duration(min(2, o.seconds/4) * float64(time.Second))
}

// client is one closed-loop worker: it issues a call, waits for it,
// checks every result, and issues the next.
type client struct {
	gen  *opGen
	res  []cluster.OpResult
	rows []engine.Entry

	// traced stamps a fresh wire trace id on every batch; lastTrace is
	// the most recent one.
	traced    bool
	lastTrace uint64

	// attempted and failed count operations; records counts the rows
	// they carried (one per point op, the rows returned per scan).
	attempted, failed, records int64
}

// take returns the client's counts and zeroes them.
func (c *client) take() (attempted, failed, records int64) {
	attempted, failed, records = c.attempted, c.failed, c.records
	c.attempted, c.failed, c.records = 0, 0, 0
	return
}

func newClient(sp spec, kt *keyTable, seed int64, id int) *client {
	c := &client{gen: newOpGen(kt, sp, seed, id)}
	if sp.scan() {
		c.rows = make([]engine.Entry, 0, sp.scanRows)
	} else {
		c.res = make([]cluster.OpResult, sp.batch)
	}
	return c
}

// target is what a client calls: the cluster coordinator in the timed
// runs, a bare store or engine on the ladder's lower rungs.
type target interface {
	ApplyInto(ops []cluster.Op, res []cluster.OpResult) error
	AppendScan(dst []engine.Entry, start []byte, limit int) ([]engine.Entry, error)
}

// call issues one client call against tg and returns how long it took.
// Result checking happens after the clock stops.
func (c *client) call(tg target) time.Duration {
	sp, kt := c.gen.sp, c.gen.kt
	if sp.scan() {
		start := c.gen.nextScanStart()
		t0 := time.Now()
		rows, err := tg.AppendScan(c.rows[:0], kt.keys[start], sp.scanRows)
		d := time.Since(t0)
		c.attempted++
		c.records += int64(len(rows))
		if err != nil || !c.validScan(start, rows) {
			c.failed++
		}
		c.rows = rows
		return d
	}
	var trace uint64
	if c.traced {
		trace = obs.NewTraceID()
		c.lastTrace = trace
	}
	ops := c.gen.nextBatch(trace)
	t0 := time.Now()
	err := tg.ApplyInto(ops, c.res)
	d := time.Since(t0)
	c.attempted += int64(len(ops))
	c.records += int64(len(ops))
	if err != nil {
		c.failed += int64(len(ops))
		return d
	}
	for i, op := range ops {
		if op.Kind == cluster.OpGet && !(c.res[i].Found && kt.valid(c.gen.keys[i], c.res[i].Value)) {
			c.failed++
		}
	}
	return d
}

// validScan checks one scan: every key preloaded and none deleted, so
// the rows must be exactly keys start.. in order — sorted, >= start,
// and scanRows long unless the keyspace ends first — each with its
// key-derived value.
func (c *client) validScan(start int, rows []engine.Entry) bool {
	kt := c.gen.kt
	if len(rows) != min(c.gen.sp.scanRows, len(kt.keys)-start) {
		return false
	}
	for i, row := range rows {
		if !bytes.Equal(row.Key, kt.keys[start+i]) || !kt.valid(start+i, row.Value) {
			return false
		}
	}
	return true
}

// window is one client's record of one timed window.
type window struct {
	calls   int
	records int64
	lat     core.LatencyRecorder // one sample per call
}

// closedLoop drives tg with the clients for dur, split into n equal
// windows by completion time, and returns each client's windows. n = 0
// is the warm-up: it records nothing.
func closedLoop(tg target, cs []*client, dur time.Duration, n int) [][]window {
	out := make([][]window, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		ws := make([]window, n)
		for w := range ws {
			ws[w].lat.Reserve(1 << 15) // above any window's calls here, so recording does not allocate
		}
		out[i] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				before := c.records
				d := c.call(tg)
				el := time.Since(start)
				if el >= dur {
					return
				}
				if n > 0 {
					w := &ws[int(el*time.Duration(n)/dur)]
					w.calls++
					w.records += c.records - before
					w.lat.Record(d)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// kvRun is what the timed phase of a KV workload measured.
type kvRun struct {
	opsPerS, recsPerS, p50us, p99us []float64          // one value per window
	samplesPerWindow                int                // fewest latency samples behind any window's p99
	attempted, failed               int64              // warm-up included
	timedOps                        int64              // operations attempted inside the windows
	before, after                   map[string]float64 // serving-side counters around the windows
	proc                            procSample
}

// timed runs the warm-up and then the windows against the topology.
func timed(t *topology, cs []*client, sp spec, opt runOptions) kvRun {
	closedLoop(t.coord, cs, opt.warmup(), 0)
	var r kvRun
	for _, c := range cs {
		// Warm-up failures are failures too.
		a, f, _ := c.take()
		r.attempted += a
		r.failed += f
	}
	runtime.GC() // start every run's windows from a collected heap
	r.before = t.counters()
	ps := procNow()
	dur := time.Duration(opt.seconds * float64(time.Second))
	perClient := closedLoop(t.coord, cs, dur, windows)
	r.proc = procNow().sub(ps)
	r.after = t.counters()
	for _, c := range cs {
		a, f, _ := c.take()
		r.timedOps += a
		r.failed += f
	}
	r.attempted += r.timedOps

	winSec := dur.Seconds() / windows
	for w := 0; w < windows; w++ {
		var lat core.LatencyRecorder
		var calls int
		var records int64
		for _, ws := range perClient {
			calls += ws[w].calls
			records += ws[w].records
			lat.Merge(&ws[w].lat)
		}
		r.opsPerS = append(r.opsPerS, float64(calls*sp.opsPerCall())/winSec)
		r.recsPerS = append(r.recsPerS, float64(records)/winSec)
		r.p50us = append(r.p50us, micros(lat.Percentile(0.50)))
		r.p99us = append(r.p99us, micros(lat.Percentile(0.99)))
		if w == 0 || lat.Count() < r.samplesPerWindow {
			r.samplesPerWindow = lat.Count()
		}
	}
	return r
}

// replicasDisagree reads every key from both shard servers' own stores
// once the clients have stopped (writes are synchronous, so that is
// quiescence) and counts keys whose copies are not both the key's
// value. The servers front static one-shard clusters, which answer
// OpGetLocal with an error, so the read goes to each server's backend
// directly.
func replicasDisagree(t *topology, kt *keyTable) (n int64) {
	for i, key := range kt.keys {
		for _, b := range t.backends {
			if v, ok := b.Get(key); !ok || !kt.valid(i, v) {
				n++
				break
			}
		}
	}
	return n
}

// setUp builds the workload's topology and preloads it, repeatedly
// unless once, and keeps the last; each build is one setup_s sample.
// It repeats for about a second in total, 3 to 25 builds, so that a
// small workload's median is not one scheduler hiccup.
func setUp(sp spec, kt *keyTable, once bool) (*topology, []float64, error) {
	var times []float64
	reps := 1
	for {
		runtime.GC()
		t0 := time.Now()
		t, err := buildTopology(sp.net, sp.repl)
		if err == nil {
			if err = t.preload(kt); err != nil {
				t.close()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == 1 && !once {
			reps = min(max(int(1/times[0]), 3), 25)
		}
		if len(times) == reps {
			return t, times, nil
		}
		t.close()
	}
}

func runKV(sp spec, opt runOptions) (*result, error) {
	kt := newKeyTable(sp.keys, sp.valueLen)
	t, setups, err := setUp(sp, kt, opt.oneSetUp())
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	defer t.close()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(sp, kt, opt.seed, i)
	}
	r := timed(t, cs, sp, opt)
	if sp.repl > 1 {
		// A key whose replicas disagree is a wrong result of the write
		// that should have reached both.
		r.failed += replicasDisagree(t, kt)
	}

	res := newResult(sp, opt)
	res.Attempted, res.Failed = r.attempted, r.failed
	res.SamplesPerWindow = r.samplesPerWindow
	res.EndToEnd["ops_per_s"] = newDist("1/s", r.opsPerS)
	res.EndToEnd["records_per_s"] = newDist("1/s", r.recsPerS)
	res.EndToEnd["p99_us"] = newDist("us", r.p99us)
	res.EndToEnd["p50_us"] = newDist("us", r.p50us)
	res.EndToEnd["setup_s"] = newDist("s", setups)
	counterLayers(res, sp, r)
	if opt.trace {
		tracedPasses(res, sp, opt, t, cs)
		t.close() // the ladder builds its own stores; free this one first
		runtime.GC()
		if err := climb(res, sp, opt, kt); err != nil {
			return nil, err
		}
	}
	res.setFailFrac()
	return res, nil
}
