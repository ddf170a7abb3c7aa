package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

const schema = "bench/1"

// layerValue is one per-layer metric as measured.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: distributions for the end-to-end
// metrics, single values for the layers, and the counts behind them.
type result struct {
	Why    string `json:"why"`
	Traced bool   `json:"traced"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// SamplesPerWindow is the fewest latency samples behind any
	// window's p99 (KV workloads), or the number of timed jobs.
	SamplesPerWindow int `json:"samples_per_window"`

	EndToEnd map[string]dist       `json:"end_to_end"`
	PerLayer map[string]layerValue `json:"per_layer"`
	// Counters are raw serving-side registry deltas over the windows.
	Counters map[string]float64 `json:"counters,omitempty"`

	name  string
	notes []string // the traced run's ladder, printed after the metrics
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func newResult(sp spec, opt runOptions) *result {
	return &result{
		name: sp.name, Why: sp.why, Traced: opt.trace,
		EndToEnd: map[string]dist{}, PerLayer: map[string]layerValue{}, Counters: map[string]float64{},
	}
}

func (r *result) correct() bool { return r.Failed == 0 }

func (r *result) setFailFrac() {
	r.EndToEnd["fail_frac"] = newDist("ratio", []float64{float64(r.Failed) / float64(r.Attempted)})
}

// layer records one per-layer metric; its unit comes from the table.
func (r *result) layer(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			r.PerLayer[name] = layerValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: per-layer metric " + name + " is not in the perLayer table")
}

// print writes every metric the run produced, by name, with its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  attempted %d  failed %d ==\n", r.name, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  %-32s %-6s %14s %12s %4s\n", "end-to-end", "unit", "median", "IQR", "n")
	names := make([]string, 0, len(r.EndToEnd))
	for name := range r.EndToEnd {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := r.EndToEnd[name]
		fmt.Fprintf(w, "  %-32s %-6s %14.6g %12.4g %4d\n", name, d.Unit, d.Median, d.IQR, len(d.Values))
	}
	fmt.Fprintf(w, "  %-32s %-6s %14s\n", "per-layer", "unit", "value")
	for _, def := range perLayer {
		if v, ok := r.PerLayer[def.name]; ok {
			fmt.Fprintf(w, "  %-32s %-6s %14.6g\n", def.name, v.Unit, v.Value)
		}
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output: the end-to-end medians of an untraced
// run, or every per-layer metric of a traced one. The contract wants
// every listed metric on every workload, so a layer the workload does
// not cross reports 0 here (and is simply absent from results.json).
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Traced {
		for _, def := range perLayer {
			metrics[def.name] = mv{r.PerLayer[def.name].Value, def.unit}
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.name] = mv{r.EndToEnd[def.name].Median, def.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can fail, and those are harness bugs
	}
	return string(line)
}

// resultsFile is the bench/1 document: small, and distributions rather
// than dumps.
type resultsFile struct {
	Schema     string             `json:"schema"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
	Workloads  map[string]*result `json:"workloads"`
}

func newResultsFile(opt runOptions) *resultsFile {
	return &resultsFile{
		Schema: schema, Seed: opt.seed, Seconds: opt.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: buildCommit(),
		Workloads: map[string]*result{},
	}
}

// buildCommit is the revision the toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func buildCommit() string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return commit + dirty
}

func (f *resultsFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// compare prints, per workload and end-to-end metric, both medians and
// IQRs, how much worse b is than a, the bound and the verdict. It
// reports whether any metric got worse or any fail_frac rose.
func compare(w io.Writer, a, b *resultsFile) (regressed bool) {
	fmt.Fprintf(w, "%-15s %-14s %13s %10s %13s %10s %8s %6s  %s\n",
		"workload", "metric", "A median", "A IQR", "B median", "B IQR", "worse", "bound", "verdict")
	for _, sp := range workloads {
		ra, rb := a.Workloads[sp.name], b.Workloads[sp.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			da, okA := ra.EndToEnd[m.name]
			db, okB := rb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			worse, v := m.verdict(da, db)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-14s %13.6g %10.4g %13.6g %10.4g %+7.1f%% %5.0f%%  %s\n",
				sp.name, m.name, da.Median, da.IQR, db.Median, db.IQR, 100*worse, 100*m.bound, v)
		}
		fa, fb := ra.EndToEnd["fail_frac"].Median, rb.EndToEnd["fail_frac"].Median
		v := verdictOK
		if fb > fa {
			v, regressed = verdictWorse, true
		}
		fmt.Fprintf(w, "%-15s %-14s %13.6g %10s %13.6g %10s %8s %6s  %s\n",
			sp.name, "fail_frac", fa, "", fb, "", "", "0", v)
	}
	return regressed
}
