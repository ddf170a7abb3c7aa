package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"
)

// layerDef names one per-layer metric. BENCHMARK.json lists the same
// names and units in the same order; layer names are this repo's
// packages. README.md says which end-to-end metric each should move.
type layerDef struct{ name, unit string }

var perLayer = []layerDef{
	// Ladder self times (traced run).
	{"kvstore.ns_per_op", "ns"},
	{"engine.ns_per_op", "ns"},
	{"cluster.ns_per_op", "ns"},
	{"transport.ns_per_op", "ns"},
	{"cluster.replicate_ns_per_op", "ns"},
	// Serving-side registry deltas around the timed windows.
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.runs_probed_per_get", "count"},
	{"engine.bloom_negative_ratio", "ratio"},
	{"engine.flushes", "count"},
	{"engine.compactions", "count"},
	{"engine.wal_bytes_per_user_byte", "ratio"},
	{"cluster.ops_per_batch", "count"},
	{"cluster.rejected_frac", "ratio"},
	{"transport.frames_per_op", "count"},
	{"transport.bytes_per_op", "bytes"},
	{"transport.framepool_miss_ratio", "ratio"},
	{"transport.shed", "count"},
	// Analytics jobs.
	{"analytics.task_p50_ms", "ms"},
	{"analytics.shuffle_bytes_per_record", "bytes"},
	{"analytics.dist_over_local", "ratio"},
	{"analytics.retries", "count"},
	{"bdgs.gen_ns_per_record", "ns"},
	// Process cost of the timed windows.
	{"proc.cpu_us_per_op", "us"},
	{"proc.ctxsw_per_kop", "count"},
	{"proc.alloc_bytes_per_op", "bytes"},
	{"proc.mallocs_per_op", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.rss_mb", "MB"},
	// Cost of the program's own wire tracing, and the open-loop pass.
	{"obs.trace_overhead_frac", "ratio"},
	{"gen.ol_p50_us", "us"},
	{"gen.ol_p99_us", "us"},
	{"gen.late_p50_us", "us"},
}

// procSample is the process's cumulative cost at one instant.
type procSample struct {
	cpu        time.Duration // user + system
	ctxsw      int64         // voluntary + involuntary context switches
	maxRSSKB   int64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func procNow() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procSample{
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		ctxsw:      ru.Nvcsw + ru.Nivcsw,
		maxRSSKB:   ru.Maxrss,
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
	}
}

// sub returns the cost between two samples; the peak RSS is the later
// sample's, since a peak has no difference.
func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		ctxsw:      a.ctxsw - b.ctxsw,
		maxRSSKB:   a.maxRSSKB,
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}

// procLayers records the process cost per attempted operation.
func procLayers(res *result, p procSample, ops float64) {
	res.layer("proc.cpu_us_per_op", float64(p.cpu.Microseconds())/ops)
	res.layer("proc.ctxsw_per_kop", float64(p.ctxsw)/ops*1e3)
	res.layer("proc.alloc_bytes_per_op", float64(p.allocBytes)/ops)
	res.layer("proc.mallocs_per_op", float64(p.mallocs)/ops)
	res.layer("proc.gc_cycles", float64(p.gcCycles))
	res.layer("proc.rss_mb", float64(p.maxRSSKB)/1024)
}

// counterLayers derives the engine, cluster and transport metrics from
// the serving-side counter deltas around the timed windows. A metric
// whose denominator is zero — the workload never crossed that layer —
// is left out.
func counterLayers(res *result, sp spec, r kvRun) {
	d := func(name string) float64 { return r.after[name] - r.before[name] }
	sum := func(prefix string) (total float64) {
		for k, v := range r.after {
			if strings.HasPrefix(k, prefix+"{") {
				total += v - r.before[k]
			}
		}
		return total
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			res.layer(name, num/den)
		}
	}
	ops := float64(r.timedOps)
	for _, c := range []string{
		"bd_engine_gets_total", "bd_engine_puts_total", "bd_engine_scans_total",
		"bd_engine_flushes_total", "bd_engine_compactions_total",
		"bd_cluster_ops_total", "bd_cluster_batches_total", "bd_transport_served_total",
	} {
		res.Counters[c] = d(c)
	}

	hits, misses := d("bd_engine_block_cache_hits_total"), d("bd_engine_block_cache_misses_total")
	ratio("engine.cache_hit_ratio", hits, hits+misses)
	probed, negative := d("bd_engine_runs_probed_total"), d("bd_engine_bloom_negative_total")
	ratio("engine.runs_probed_per_get", probed, d("bd_engine_gets_total"))
	ratio("engine.bloom_negative_ratio", negative, negative+probed)
	res.layer("engine.flushes", d("bd_engine_flushes_total"))
	res.layer("engine.compactions", d("bd_engine_compactions_total"))
	// User bytes are what the clients asked to write once; WAL bytes
	// count every replica's log, so R=2 shows as a ratio above 2.
	userBytes := d("bd_engine_puts_total") / float64(sp.repl) * float64(keyLen+sp.valueLen)
	ratio("engine.wal_bytes_per_user_byte", d("bd_engine_wal_bytes_total"), userBytes)

	ratio("cluster.ops_per_batch", d("bd_cluster_ops_total"), d("bd_cluster_batches_total"))
	accepted, rejected := d("bd_cluster_accepted_total"), d("bd_cluster_rejected_total")
	ratio("cluster.rejected_frac", rejected, accepted+rejected)

	if sp.net {
		res.layer("transport.frames_per_op", sum("bd_transport_requests_total")/ops)
		res.layer("transport.bytes_per_op", sum("bd_transport_bytes_total")/ops)
		pool := sum("bd_transport_framepool_total")
		ratio("transport.framepool_miss_ratio", d(`bd_transport_framepool_total{outcome="miss"}`), pool)
		res.layer("transport.shed", d("bd_transport_shed_total"))
	}
	procLayers(res, r.proc, ops)
}
