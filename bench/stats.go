package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks — the "inclusive" method, so the
// quartiles of a 10-window run lie inside the observed values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist is a distribution stored in results: the per-window (or per-job,
// per-set-up) values with their median and inter-quartile range.
type dist struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Values []float64 `json:"values"`
}

func newDist(unit string, values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return dist{
		Unit:   unit,
		Median: quantile(s, 0.5),
		IQR:    quantile(s, 0.75) - quantile(s, 0.25),
		Values: values,
	}
}

// metricDef is one end-to-end metric's contract: BENCHMARK.json carries
// the same names, units, directions and bounds.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the baseline median the metric may worsen by
	floor  float64 // absolute change below which a worsening is ignored
}

// The bounds are three times the widest spread ten runs of a workload
// showed on this sandbox (README.md has the table), rounded up: runs of
// one commit differ by a per-process offset that a longer run does not
// average away.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.12},
	{name: "p99_us", unit: "us", bound: 0.25},
	{name: "records_per_s", unit: "1/s", higher: true, bound: 0.12},
	// The small workloads set up in ~10 ms, where a quarter is scheduler
	// noise; -compare wants a set-up regression to cost a quarter second
	// as well before it counts.
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.25},
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric's distribution in run b against baseline a.
// worse is how far b's median moved in the bad direction as a share of
// a's. When either side's own IQR is wider than the bound the medians
// cannot be told apart at that resolution: the answer is unresolved,
// never ok.
func (m metricDef) verdict(a, b dist) (worse float64, v string) {
	worse = (b.Median - a.Median) / a.Median
	if m.higher {
		worse = -worse
	}
	tooWide := func(d dist) bool {
		return d.IQR > m.bound*d.Median && d.IQR > m.floor
	}
	switch {
	case tooWide(a) || tooWide(b):
		return worse, verdictUnresolved
	case worse > m.bound && math.Abs(b.Median-a.Median) > m.floor:
		return worse, verdictWorse
	}
	return worse, verdictOK
}
