// Command bench is the repository's benchmark: five closed-loop
// workloads against the KV cluster and the analytics engine, all inside
// one process, with per-layer counters and a traced layer ladder.
// README.md says why each workload exists and how to read the output;
// BENCHMARK.json at the repository root is the contract it is run by.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is the timed phase BENCHMARK.json's run_seconds asks
// for. At 10 s kv-read-bigset's 1 s windows differed by up to 12 % (IQR)
// inside one run; at 1.5 s by 3-5 %. README.md has the measurements.
const defaultSeconds = 15

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed; feeds the generators only")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of each workload's timed phase")
		trace    = flag.Int("trace", 0, "1 adds the traced run: layer ladder, wire tracing, open-loop pass")
		out      = flag.String("out", "bench/out/results.json", "results file (bench/1); span files go beside it")
		cmp      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two results files")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	specs := workloads
	if *workload != "all" {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []spec{sp}
	}
	opt := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: filepath.Dir(*out)}
	file := newResultsFile(opt)
	fmt.Printf("bench: seed %d  nproc %d  GOMAXPROCS %d  %s  commit %s  clients %d  conns/server %d\n",
		file.Seed, file.NProc, file.GOMAXPROCS, file.Go, file.Commit, clients, connsPerSrv)
	failed := false
	for _, sp := range specs {
		res, err := runWorkload(sp, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		file.Workloads[sp.name] = res
		if err := file.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print(os.Stdout)
		fmt.Println(res.driverLine())
		failed = failed || !res.correct()
		runtime.GC() // hand the next workload a collected heap
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: correctness check failed (failed > 0 above)")
		return 1
	}
	return 0
}

func runWorkload(sp spec, opt runOptions) (*result, error) {
	sp = sp.shrink(opt.shrink)
	if sp.analytics() {
		return runAnalytics(sp, opt)
	}
	return runKV(sp, opt)
}

func runCompare(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}
