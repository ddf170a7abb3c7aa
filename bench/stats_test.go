package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistMedianIQR(t *testing.T) {
	d := newDist("x", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(d.Median, 5.5) || !near(d.IQR, 4.5) {
		t.Errorf("1..10: median %v IQR %v, want 5.5 and 4.5", d.Median, d.IQR)
	}
	if d.Values[0] != 10 {
		t.Error("newDist reordered the caller's values")
	}
	d = newDist("x", []float64{3, 1, 2})
	if !near(d.Median, 2) || !near(d.IQR, 1) {
		t.Errorf("1..3: median %v IQR %v, want 2 and 1", d.Median, d.IQR)
	}
	d = newDist("x", []float64{4})
	if !near(d.Median, 4) || !near(d.IQR, 0) {
		t.Errorf("one value: median %v IQR %v, want 4 and 0", d.Median, d.IQR)
	}
}

func metric(name string) metricDef {
	for _, m := range endToEnd {
		if m.name == name {
			return m
		}
	}
	panic(name)
}

func TestVerdict(t *testing.T) {
	d := func(median, iqr float64) dist { return dist{Median: median, IQR: iqr} }
	for _, c := range []struct {
		metric string
		a, b   dist
		want   string
	}{
		// ops_per_s: higher is better, bound 12 %.
		{"ops_per_s", d(100, 1), d(90, 1), verdictOK},
		{"ops_per_s", d(100, 1), d(87, 1), verdictWorse},
		{"ops_per_s", d(100, 1), d(130, 1), verdictOK},
		// A side whose own IQR is wider than the bound resolves nothing,
		// whichever way the medians moved.
		{"ops_per_s", d(100, 13), d(100, 1), verdictUnresolved},
		{"ops_per_s", d(100, 1), d(80, 11), verdictUnresolved},
		// p99_us: lower is better, bound 25 %.
		{"p99_us", d(200, 10), d(240, 10), verdictOK},
		{"p99_us", d(200, 10), d(260, 10), verdictWorse},
		{"p99_us", d(200, 10), d(100, 10), verdictOK},
		// setup_s: bound 25 % with a quarter-second absolute floor.
		{"setup_s", d(0.010, 0.001), d(0.020, 0.001), verdictOK},
		{"setup_s", d(0.010, 0.008), d(0.011, 0.001), verdictOK},
		{"setup_s", d(1.0, 0.05), d(1.2, 0.05), verdictOK},
		{"setup_s", d(1.0, 0.05), d(1.3, 0.05), verdictWorse},
		{"setup_s", d(3.0, 0.9), d(3.0, 0.1), verdictUnresolved},
	} {
		if _, got := metric(c.metric).verdict(c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.metric, c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	file := func(ops, failFrac float64) *resultsFile {
		return &resultsFile{Schema: schema, Workloads: map[string]*result{
			"kv-read-net": {EndToEnd: map[string]dist{
				"ops_per_s": {Median: ops, IQR: 1},
				"fail_frac": {Median: failFrac},
			}},
		}}
	}
	var out bytes.Buffer
	if compare(&out, file(100, 0), file(99, 0)) {
		t.Errorf("a 1 %% drop regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("comparison does not name the metric and its verdict:\n%s", out.String())
	}
	if !compare(&out, file(100, 0), file(80, 0)) {
		t.Error("a 20 % drop did not regress")
	}
	if !compare(&out, file(100, 0), file(100, 1e-6)) {
		t.Error("a rise in fail_frac did not regress")
	}
}

// TestSmoke runs every workload end to end at a fiftieth of its size for
// 200 ms, untraced and traced, so every code path runs in seconds.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			opt := runOptions{seed: 1, seconds: 0.2, trace: trace, shrink: 50, outDir: dir}
			res, err := runWorkload(sp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Errorf("%s: attempted %d failed %d", sp.name, res.Attempted, res.Failed)
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(res.driverLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: driver line %s: %v", sp.name, res.driverLine(), err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s trace=%v: driver line has %d metrics, want %d", sp.name, trace, len(line.Metrics), want)
			}
			if !trace {
				for _, m := range endToEnd {
					if v := line.Metrics[m.name].Value; v == nil || !(*v > 0) {
						t.Errorf("%s: %s = %v, want a positive value", sp.name, m.name, v)
					}
				}
				continue
			}
			if sp.analytics() {
				continue
			}
			// The ladder's self times telescope to the top rung's span.
			if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("%s: traced run wrote no span file: %v", sp.name, err)
			}
			_, hasTransport := res.PerLayer["transport.ns_per_op"]
			if hasTransport != sp.net {
				t.Errorf("%s: transport.ns_per_op present = %v, want %v", sp.name, hasTransport, sp.net)
			}
			if sp.net && res.Counters["bd_transport_served_total"] == 0 {
				t.Errorf("%s: server-side request counter did not move", sp.name)
			}
		}
	}
}

// TestSetUpRepeats covers the repeat count setUp chooses for itself.
func TestSetUpRepeats(t *testing.T) {
	sp, _ := findSpec("kv-read-net")
	sp = sp.shrink(8)
	topo, times, err := setUp(sp, newKeyTable(sp.keys, sp.valueLen), false)
	if err != nil {
		t.Fatal(err)
	}
	topo.close()
	if len(times) < 3 || len(times) > 25 {
		t.Errorf("setUp repeated %d times, want 3..25", len(times))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Paths      []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, want the -seconds default %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q %q, want %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || (m.Better == "higher") != want.higher {
			t.Errorf("end-to-end metric %d = %+v, want %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d = %+v, want %+v", i, m, perLayer[i])
		}
	}
}
