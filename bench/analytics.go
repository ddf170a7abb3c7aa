package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/analytics"
	"repro/internal/bdgs"
	"repro/internal/cluster"
	"repro/internal/transport"
)

// executors is the analytics system under test: executor servers on
// loopback in this process and a coordinator dialed to them, as
// bench_test.go's analyticsBenchCluster builds it.
type executors struct {
	coord  *analytics.Coordinator
	closes []func()
}

func buildExecutors() (*executors, error) {
	e := &executors{}
	var addrs []string
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		backend := cluster.New(cluster.Config{Shards: 1})
		ex := analytics.NewExecutor(analytics.ExecutorConfig{Self: ln.Addr().String(), Local: backend})
		srv := transport.Serve(ln, backend, transport.ServerOptions{Tasks: ex})
		addrs = append(addrs, ln.Addr().String())
		e.closes = append(e.closes, func() { srv.Close(); ex.Close(); backend.Close() })
	}
	coord, err := analytics.NewCoordinator(addrs, analytics.CoordinatorOptions{})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = coord
	return e, nil
}

func (e *executors) close() {
	if e.coord != nil {
		e.coord.Close()
	}
	for _, fn := range e.closes {
		fn()
	}
}

// runAnalytics times repeated distributed WordCount jobs for at least
// opt.seconds (and at least three jobs). Every job's digest must equal
// the in-process reference's.
//
// Set-up here is standing the executors up and running the first, cold
// job on them: the executors' lazy state (text model, peer connections)
// is built by that job, so work a later change moves out of the timed
// jobs and into a cache shows up in setup_s.
func runAnalytics(sp spec, opt runOptions) (*result, error) {
	job := analytics.JobSpec{Kind: analytics.WordCount, Seed: opt.seed, Lines: sp.lines}
	t0 := time.Now()
	ref, err := analytics.RunLocal(job, clients)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", sp.name, err)
	}
	localWall := time.Since(t0)
	want := ref.Digest()
	res := newResult(sp, opt)
	// runJob runs one job and checks it; a wrong digest is a failed job,
	// an error ends the run.
	runJob := func(e *executors) (*analytics.JobResult, error) {
		jr, err := e.coord.Run(job)
		res.Attempted++
		if err != nil {
			return nil, fmt.Errorf("%s: job %d: %w", sp.name, res.Attempted, err)
		}
		if jr.Digest() != want {
			res.Failed++
		}
		return jr, nil
	}

	reps := 3
	if opt.oneSetUp() {
		reps = 1
	}
	var e *executors
	var setups []float64
	for len(setups) < reps {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = buildExecutors(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		if _, err := runJob(e); err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	var walls, recsPerS, jobsPerS, taskP50 []float64
	var shuffle, retries int64
	runtime.GC()
	ps, timedStart := procNow(), time.Now()
	for len(walls) < 3 || time.Since(timedStart).Seconds() < opt.seconds {
		jr, err := runJob(e)
		if err != nil {
			return nil, err
		}
		wall := jr.Elapsed.Seconds()
		walls = append(walls, wall*1e6)
		recsPerS = append(recsPerS, float64(jr.Job.Items())/wall)
		jobsPerS = append(jobsPerS, 1/wall)
		taskP50 = append(taskP50, float64(jr.TaskLatency.P50)/1e6)
		shuffle += jr.ShuffleBytes
		retries += int64(jr.Retries)
	}
	proc := procNow().sub(ps)
	jobs := float64(len(walls))

	res.SamplesPerWindow = len(walls)
	res.EndToEnd["records_per_s"] = newDist("1/s", recsPerS)
	// A job is the client operation here. Fewer than a hundred run, so
	// the 99th percentile of job time is the slowest job.
	res.EndToEnd["ops_per_s"] = newDist("1/s", jobsPerS)
	wallDist := newDist("us", walls)
	res.EndToEnd["p50_us"] = wallDist
	slowest := wallDist
	slowest.Median, slowest.IQR = slices.Max(walls), 0
	res.EndToEnd["p99_us"] = slowest
	res.EndToEnd["setup_s"] = newDist("s", setups)
	res.setFailFrac()

	res.layer("analytics.task_p50_ms", newDist("ms", taskP50).Median)
	res.layer("analytics.shuffle_bytes_per_record", float64(shuffle)/jobs/float64(sp.lines))
	res.layer("analytics.dist_over_local", wallDist.Median/1e6/localWall.Seconds())
	res.layer("analytics.retries", float64(retries))
	procLayers(res, proc, jobs*float64(sp.lines))
	if opt.trace {
		// The stable text generator alone, over the same lines the map
		// tasks regenerate.
		t0 := time.Now()
		lines := bdgs.NewTextModel(ref.Job.Vocab).LinesAt(job.Seed, 0, sp.lines, ref.Job.WordsPerLine)
		res.layer("bdgs.gen_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
	}
	return res, nil
}
