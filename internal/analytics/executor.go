package analytics

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

// LocalScanner is the executor's window onto the storage its server
// hosts, for InputEngine jobs: analytics tasks scan the shards that
// already live on the node instead of shipping data to compute.
// *cluster.Cluster satisfies it.
type LocalScanner interface {
	Scan(start []byte, limit int) ([]engine.Entry, error)
}

// ExecutorConfig sizes one per-node task executor.
type ExecutorConfig struct {
	// Self is the address peers fetch this executor's shuffle output
	// from — the hosting server's advertised listen address. Fetches a
	// task addresses to Self short-circuit to local memory.
	Self string
	// Local serves InputEngine map tasks (nil rejects them).
	Local LocalScanner
	// MaxConcurrent bounds simultaneously executing tasks (default 2 —
	// the per-node task slots of a MapReduce node manager; the
	// coordinator's scale-out comes from adding nodes, not from one node
	// oversubscribing itself).
	MaxConcurrent int
	// Client configures connections to peer executors for shuffle
	// fetches.
	Client transport.ClientOptions
	// TaskTTL bounds how long a completed task's result and shuffle
	// output stay fetchable (default 5m). Expired tasks are pruned on
	// the next submit; a coordinator that comes back later sees an
	// unknown-task error and reschedules.
	TaskTTL time.Duration
}

func (c *ExecutorConfig) normalize() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.TaskTTL <= 0 {
		c.TaskTTL = 5 * time.Minute
	}
}

// ErrUnknownTask reports a status or fetch for a task this executor does
// not hold (never submitted, expired, or lost to a restart).
var ErrUnknownTask = errors.New("analytics: unknown task")

// Executor runs analytics tasks on one node and serves their shuffle
// output to peers. It implements transport.TaskHost, so a transport
// server exposes it on the wire next to the KV data plane.
type Executor struct {
	cfg ExecutorConfig

	mu     sync.Mutex
	nextID uint64
	tasks  map[uint64]*execTask
	peers  map[string]*transport.Client
	closed bool

	sem chan struct{} // task-slot permits

	metrics execMetrics
}

// execMetrics is the executor's always-on counter block
// (bd_analytics_* families, DESIGN.md §11).
type execMetrics struct {
	mapTasks    obs.Counter   // map tasks executed
	reduceTasks obs.Counter   // reduce tasks executed
	failures    obs.Counter   // tasks that finished with an error
	fetchBytes  obs.Counter   // shuffle bytes pulled from remote peers
	taskSec     obs.Histogram // task execution time
}

// RegisterMetrics exports the executor's task counters into r under the
// bd_analytics_* family.
func (e *Executor) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("bd_analytics_tasks_total", "Tasks executed, by kind.",
		obs.Labels{"kind": "map"}, &e.metrics.mapTasks)
	r.RegisterCounter("bd_analytics_tasks_total", "Tasks executed, by kind.",
		obs.Labels{"kind": "reduce"}, &e.metrics.reduceTasks)
	r.RegisterCounter("bd_analytics_task_failures_total", "Tasks that finished with an error.", nil,
		&e.metrics.failures)
	r.RegisterCounter("bd_analytics_shuffle_fetch_bytes_total", "Shuffle bytes pulled from remote peers (local short-circuits excluded).", nil,
		&e.metrics.fetchBytes)
	r.RegisterHistogram("bd_analytics_task_seconds", "Task execution time.", nil,
		&e.metrics.taskSec)
	r.GaugeFunc("bd_analytics_tasks_held", "Task records currently retained (running or fetchable).", nil,
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(len(e.tasks))
		})
}

// execTask is one task's lifecycle record.
type execTask struct {
	spec     TaskSpec
	finished bool
	doneAt   time.Time
	err      error
	result   []byte   // encoded TaskResult
	shuffle  [][]byte // map output, one blob per reduce partition
}

// NewExecutor builds an executor.
func NewExecutor(cfg ExecutorConfig) *Executor {
	cfg.normalize()
	return &Executor{
		cfg:   cfg,
		tasks: map[uint64]*execTask{},
		peers: map[string]*transport.Client{},
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
}

// SubmitTask implements transport.TaskHost: register the task and start
// it on a task slot. The call returns as soon as the task is registered
// — execution progress is observed through TaskStatus.
func (e *Executor) SubmitTask(spec []byte) (uint64, error) {
	ts, err := DecodeTaskSpec(spec)
	if err != nil {
		return 0, err
	}
	if err := ts.validate(); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, cluster.ErrClosed
	}
	e.pruneLocked()
	// Releases are bookkeeping, not work: handle them inline rather
	// than spending a task slot and leaving yet another task record to
	// prune. Id 0 is never assigned to a real task, so the ack cannot
	// collide with anything a caller would poll.
	if ts.Kind == TaskRelease {
		for _, id := range ts.Release {
			delete(e.tasks, id)
		}
		return 0, nil
	}
	e.nextID++
	id := e.nextID
	t := &execTask{spec: ts}
	e.tasks[id] = t
	go e.run(t)
	return id, nil
}

// pruneLocked drops completed tasks past their TTL.
func (e *Executor) pruneLocked() {
	cutoff := time.Now().Add(-e.cfg.TaskTTL)
	for id, t := range e.tasks {
		if t.finished && t.doneAt.Before(cutoff) {
			delete(e.tasks, id)
		}
	}
}

// run executes one task under a slot permit.
func (e *Executor) run(t *execTask) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	start := time.Now()
	res, shuffle, err := e.execute(t.spec)
	e.metrics.taskSec.Observe(time.Since(start))
	switch t.spec.Kind {
	case TaskMap:
		e.metrics.mapTasks.Inc()
	case TaskReduce:
		e.metrics.reduceTasks.Inc()
	}
	if err != nil {
		e.metrics.failures.Inc()
	}
	var encoded []byte
	if err == nil {
		res.DurationNs = time.Since(start).Nanoseconds()
		res.Addr = e.cfg.Self
		encoded = EncodeTaskResult(*res)
	}
	e.mu.Lock()
	t.finished = true
	t.doneAt = time.Now()
	t.err = err
	t.result = encoded
	t.shuffle = shuffle
	e.mu.Unlock()
}

// execute dispatches one task body. A panic — validate() catches the
// malformed specs we know about, this catches the ones we don't — is
// converted into a task error: the hosting daemon serves a KV data
// plane too, and a bad analytics task must never take it down.
func (e *Executor) execute(ts TaskSpec) (res *TaskResult, shuffle [][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, shuffle = nil, nil
			err = fmt.Errorf("analytics: %s task panicked: %v", ts.Kind, r)
		}
	}()
	switch ts.Kind {
	case TaskMap:
		return e.runMap(ts)
	case TaskReduce:
		res, err = e.runReduce(ts)
		return res, nil, err
	default:
		return nil, nil, fmt.Errorf("analytics: unknown task kind %q", ts.Kind)
	}
}

// TaskStatus implements transport.TaskHost.
func (e *Executor) TaskStatus(id uint64) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	if !t.finished {
		return false, nil
	}
	return true, t.err
}

// ShuffleFetch implements transport.TaskHost. ResultPart returns the
// completed task's encoded TaskResult; other parts return the map
// task's shuffle partitions.
func (e *Executor) ShuffleFetch(id uint64, part uint32) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	if !t.finished {
		return nil, fmt.Errorf("analytics: task %d still running", id)
	}
	if t.err != nil {
		return nil, fmt.Errorf("analytics: task %d failed: %s", id, t.err)
	}
	if part == ResultPart {
		return t.result, nil
	}
	if int(part) >= len(t.shuffle) {
		return nil, fmt.Errorf("analytics: task %d has no partition %d", id, part)
	}
	return t.shuffle[part], nil
}

// Close drops every task and peer connection. Running tasks finish into
// the void (their coordinator will see unknown-task and reschedule).
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.tasks = map[uint64]*execTask{}
	peers := e.peers
	e.peers = map[string]*transport.Client{}
	e.mu.Unlock()
	for _, c := range peers {
		c.Close()
	}
}

// peer returns (dialing if needed) the shuffle-fetch client for addr.
func (e *Executor) peer(addr string) (*transport.Client, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, cluster.ErrClosed
	}
	if c, ok := e.peers[addr]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()
	c, err := transport.Dial(addr, e.cfg.Client)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return nil, cluster.ErrClosed
	}
	if prev, ok := e.peers[addr]; ok {
		c.Close()
		return prev, nil
	}
	e.peers[addr] = c
	return c, nil
}

// fetchPartition pulls partition part of one map task's shuffle output,
// short-circuiting to local memory when the task lives on this
// executor. Remote fetches carry the reduce task's job trace, so the
// peer-to-peer shuffle hop lands in the source executor's span log
// under the same trace as the rest of the job.
func (e *Executor) fetchPartition(trace uint64, ref FetchRef, part int) ([]byte, error) {
	if ref.Addr == e.cfg.Self && e.cfg.Self != "" {
		return e.ShuffleFetch(ref.Task, uint32(part))
	}
	c, err := e.peer(ref.Addr)
	if err != nil {
		return nil, fmt.Errorf("analytics: shuffle fetch %s: %w", ref.Addr, err)
	}
	b, err := c.ShuffleFetchTraced(trace, ref.Task, uint32(part))
	if err != nil {
		return nil, fmt.Errorf("analytics: shuffle fetch %s: %w", ref.Addr, err)
	}
	e.metrics.fetchBytes.Add(uint64(len(b)))
	return b, nil
}

// ---- map tasks -----------------------------------------------------------

// runMap executes one map task: read the input slice, apply the job's
// map function, bucket the emitted rows into Reducers partitions.
func (e *Executor) runMap(ts TaskSpec) (*TaskResult, [][]byte, error) {
	j := ts.Job
	buckets := make([][]byte, j.Reducers)
	emitText := func(key, val []byte) {
		p := partitionText(key, j.Reducers)
		buckets[p] = AppendRow(buckets[p], key, val)
	}
	emitU32 := func(key uint32, val []byte) {
		p := partitionU32(key, j.Reducers)
		buckets[p] = AppendRow(buckets[p], u32Bytes(key), val)
	}
	inputRows, outputRows := 0, 0
	switch j.Kind {
	case WordCount:
		lines, err := e.mapInput(ts)
		if err != nil {
			return nil, nil, err
		}
		inputRows = len(lines)
		// Map-side combine within the task: per-word partial counts.
		// Counts are integers, so combining is order-free and the reduce
		// side's totals match the uncombined in-process engine exactly.
		// Lookups do not copy the token; a word's key is allocated on its
		// first sight, and emission follows first-seen order.
		slot := map[string]int{}
		var words []string
		var counts []int
		for _, line := range lines {
			tokenize(line, func(w []byte) {
				k, ok := slot[string(w)]
				if !ok {
					k = len(words)
					words = append(words, string(w))
					slot[words[k]] = k
					counts = append(counts, 0)
				}
				counts[k]++
			})
		}
		var num []byte
		for k, w := range words {
			num = strconv.AppendInt(num[:0], int64(counts[k]), 10)
			emitText([]byte(w), num)
			outputRows++
		}
	case Grep:
		lines, err := e.mapInput(ts)
		if err != nil {
			return nil, nil, err
		}
		inputRows = len(lines)
		for _, line := range lines {
			if grepMatch(line, j.Pattern) {
				emitText(line, []byte("1"))
				outputRows++
			}
		}
	case Sort:
		lines, err := e.mapInput(ts)
		if err != nil {
			return nil, nil, err
		}
		inputRows = len(lines)
		for _, line := range lines {
			emitText(line, nil)
			outputRows++
		}
	case PageRank:
		g := webGraph(j)
		if len(ts.Ranks) != ts.Hi-ts.Lo {
			return nil, nil, fmt.Errorf("analytics: pagerank map got %d ranks for range [%d,%d)",
				len(ts.Ranks), ts.Lo, ts.Hi)
		}
		inputRows = ts.Hi - ts.Lo
		for v := ts.Lo; v < ts.Hi; v++ {
			adj := g.Adj[v]
			if len(adj) == 0 {
				continue
			}
			share := ts.Ranks[v-ts.Lo] / float64(len(adj))
			for _, to := range adj {
				emitU32(uint32(to), contribBytes(uint32(v), share))
				outputRows++
			}
		}
	case KMeans:
		if len(ts.Cents) == 0 {
			return nil, nil, errors.New("analytics: kmeans map got no centroids")
		}
		vecs := kmeansVectors(j, ts.Lo, ts.Hi)
		inputRows = len(vecs)
		for i, v := range vecs {
			c := nearestCentroid(v, ts.Cents)
			emitU32(uint32(c), u32Bytes(uint32(ts.Lo+i)))
			outputRows++
		}
	default:
		return nil, nil, fmt.Errorf("analytics: map task for unknown kind %q", j.Kind)
	}
	return &TaskResult{MapID: ts.MapID, InputRows: inputRows, OutputRows: outputRows},
		buckets, nil
}

// mapInput reads the map task's record slice: regenerated from the
// stable generators, or scanned from the node's local engine.
func (e *Executor) mapInput(ts TaskSpec) ([][]byte, error) {
	if ts.Job.Input == InputEngine {
		if e.cfg.Local == nil {
			return nil, errors.New("analytics: executor hosts no local store for engine-input jobs")
		}
		entries, err := e.cfg.Local.Scan(nil, 1<<30)
		if err != nil {
			return nil, fmt.Errorf("analytics: local scan: %w", err)
		}
		lines := make([][]byte, len(entries))
		for i, ent := range entries {
			lines[i] = ent.Value
		}
		return lines, nil
	}
	return genLines(ts.Job, ts.Lo, ts.Hi), nil
}

// ---- reduce tasks --------------------------------------------------------

// runReduce executes one reduce task: fetch its partition from every map
// task in MapID order and fold. Fetch order matters for the float jobs —
// map tasks cover ascending contiguous input ranges, so MapID-ordered
// concatenation folds contributions in ascending input-index order, the
// same order the in-process dataflow engine folds in.
func (e *Executor) runReduce(ts TaskSpec) (*TaskResult, error) {
	j := ts.Job
	var all []byte
	for _, ref := range ts.Fetch {
		b, err := e.fetchPartition(ts.Job.Trace, ref, ts.Part)
		if err != nil {
			return nil, err
		}
		all = append(all, b...)
	}
	res := &TaskResult{Part: ts.Part, ShuffleBytes: int64(len(all))}
	switch j.Kind {
	case WordCount, Grep, Sort:
		type kvPair struct{ k, v string }
		var pairs []kvPair
		if err := WalkRows(all, func(k, v []byte) error {
			pairs = append(pairs, kvPair{string(k), string(v)})
			return nil
		}); err != nil {
			return nil, err
		}
		res.InputRows = len(pairs)
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
		var out []byte
		i := 0
		for i < len(pairs) {
			k := pairs[i].k
			jj := i
			for jj < len(pairs) && pairs[jj].k == k {
				jj++
			}
			switch j.Kind {
			case Sort:
				// One output row per input occurrence, like the sort
				// reference's reducer emitting the key once per value.
				for n := i; n < jj; n++ {
					out = AppendRow(out, []byte(k), nil)
					res.OutputRows++
				}
			default:
				total := 0
				for n := i; n < jj; n++ {
					c, err := strconv.Atoi(pairs[n].v)
					if err != nil {
						return nil, ErrRowCorrupt
					}
					total += c
				}
				out = AppendRow(out, []byte(k), []byte(strconv.Itoa(total)))
				res.OutputRows++
			}
			i = jj
		}
		res.Rows = out
	case PageRank:
		// Fold each destination's contributions in arrival order
		// (ascending source vertex — see above), matching the dataflow
		// engine's ReduceByKey left fold bit for bit.
		sums := map[uint32]float64{}
		seen := map[uint32]bool{}
		var order []uint32
		if err := WalkRows(all, func(k, v []byte) error {
			dest, ok := u32From(k)
			if !ok {
				return ErrRowCorrupt
			}
			_, share, ok := contribFrom(v)
			if !ok {
				return ErrRowCorrupt
			}
			if !seen[dest] {
				seen[dest] = true
				order = append(order, dest)
				sums[dest] = share
			} else {
				sums[dest] += share
			}
			res.InputRows++
			return nil
		}); err != nil {
			return nil, err
		}
		sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
		var out []byte
		for _, dest := range order {
			out = AppendRow(out, u32Bytes(dest), sumBytes(sums[dest]))
			res.OutputRows++
		}
		res.Rows = out
	case KMeans:
		// Regenerate each member vector and fold the cluster sums in
		// arrival order (ascending vector index), matching the dataflow
		// centAccum left fold.
		type acc struct {
			sum []float64
			n   int64
		}
		accs := map[uint32]*acc{}
		var order []uint32
		if err := WalkRows(all, func(k, v []byte) error {
			c, ok := u32From(k)
			if !ok {
				return ErrRowCorrupt
			}
			idx, ok := u32From(v)
			if !ok {
				return ErrRowCorrupt
			}
			vec := kmeansVectorAt(j, int(idx))
			a := accs[c]
			if a == nil {
				accs[c] = &acc{sum: append([]float64(nil), vec...), n: 1}
				order = append(order, c)
			} else {
				for d, x := range vec {
					a.sum[d] += x
				}
				a.n++
			}
			res.InputRows++
			return nil
		}); err != nil {
			return nil, err
		}
		sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
		var out []byte
		for _, c := range order {
			out = AppendRow(out, u32Bytes(c), accBytes(accs[c].n, accs[c].sum))
			res.OutputRows++
		}
		res.Rows = out
	default:
		return nil, fmt.Errorf("analytics: reduce task for unknown kind %q", j.Kind)
	}
	return res, nil
}
