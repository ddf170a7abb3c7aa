package figures

import (
	"testing"

	"repro/internal/comparators"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestHeadlineShapes is the repository's reproduction gate: it verifies
// the qualitative results of the paper's Section 6 (DESIGN.md §4 lists
// them) on a reduced but representative input. It runs the full suite
// once, so it is skipped under -short.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	t.Parallel()
	cfg := Quick()
	cfg.CharScale = 4
	m5645 := sim.XeonE5645()
	m5310 := sim.XeonE5310()

	type row struct {
		name  string
		k5645 sim.Counts
		k5310 sim.Counts
	}
	var rows []row
	for _, w := range workloads.All() {
		in := cfg.Base
		in.Scale = cfg.CharScale
		a, err := core.Characterize(w, in, m5645)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Characterize(w, in, m5310)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{w.Name(), a.Counts, b.Counts})
	}
	avg := func(f func(sim.Counts) float64, on5310 bool) float64 {
		s := 0.0
		for _, r := range rows {
			k := r.k5645
			if on5310 {
				k = r.k5310
			}
			s += f(k)
		}
		return s / float64(len(rows))
	}
	suites := map[string]sim.Counts{}
	for _, s := range comparators.Suites() {
		suites[s] = suiteCounts(s, m5645)
	}

	// Shape 1: FP operation intensity of big data is far below the
	// FP-oriented traditional suites (paper: two orders of magnitude).
	bdFP := avg(sim.Counts.FPIntensity, false)
	for _, s := range []string{"HPCC", "PARSEC", "SPECFP"} {
		if suites[s].FPIntensity() < 8*bdFP {
			t.Errorf("shape1: %s FP intensity %.3f not ≫ big-data %.3f",
				s, suites[s].FPIntensity(), bdFP)
		}
	}

	// Shape 1b: integer intensity stays in the same order of magnitude.
	bdInt := avg(sim.Counts.IntIntensity, false)
	if bdInt < 0.1 || bdInt > 30 {
		t.Errorf("shape1b: big-data integer intensity %.3f out of range", bdInt)
	}

	// Shape 2: the average integer:FP ratio of big data is O(100), far
	// above HPCC/PARSEC/SPECFP and far below none of them.
	bdRatio := avg(sim.Counts.IntToFPRatio, false)
	if bdRatio < 20 || bdRatio > 400 {
		t.Errorf("shape2: big-data int/FP ratio %.1f, want O(75)", bdRatio)
	}
	for _, s := range []string{"HPCC", "PARSEC", "SPECFP"} {
		if r := suites[s].IntToFPRatio(); r > 5 {
			t.Errorf("shape2: %s int/FP ratio %.2f, want ≈1", s, r)
		}
	}
	if r := suites["SPECINT"].IntToFPRatio(); r < 50 {
		t.Errorf("shape2: SPECINT int/FP ratio %.1f, want very high", r)
	}

	// Shape 3: big-data L1I MPKI ≥ 4× every traditional suite.
	bdL1I := avg(sim.Counts.L1IMPKI, false)
	for s, k := range suites {
		if bdL1I < 4*k.L1IMPKI() {
			t.Errorf("shape3: big-data L1I %.2f not ≥4× %s %.2f", bdL1I, s, k.L1IMPKI())
		}
	}
	if bdL1I < 5 {
		t.Errorf("shape3: big-data average L1I MPKI %.2f too low (paper: 23)", bdL1I)
	}

	// Shape 4: BFS is the analytics L2 outlier; Nutch is the low-L2
	// service.
	byName := map[string]sim.Counts{}
	for _, r := range rows {
		byName[r.name] = r.k5645
	}
	if bfs := byName["BFS"].L2MPKI(); bfs < 1.5*avg(sim.Counts.L2MPKI, false) {
		t.Errorf("shape4: BFS L2 MPKI %.1f should stand far above the average", bfs)
	}
	nutch := byName["Nutch Server"].L2MPKI()
	for _, svc := range []string{"Olio Server", "Rubis Server"} {
		if nutch >= byName[svc].L2MPKI() {
			t.Errorf("shape4: Nutch L2 %.1f should undercut %s %.1f",
				nutch, svc, byName[svc].L2MPKI())
		}
	}

	// Shape 5: the L3 is effective — big-data LLC MPKI is small (same
	// magnitude as the traditional suites, not ×10 like L1I/L2).
	bdL3 := avg(sim.Counts.L3MPKI, false)
	if bdL3 > 8 {
		t.Errorf("shape5: big-data average L3 MPKI %.2f too high (paper: 1.5)", bdL3)
	}
	// ...and L3 filtering explains why FP intensity is higher on the
	// three-level E5645 than the two-level E5310 (Section 6.3.1).
	bdFP5310 := avg(sim.Counts.FPIntensity, true)
	if bdFP <= bdFP5310 {
		t.Errorf("shape5b: FP intensity E5645 %.4f should exceed E5310 %.4f",
			bdFP, bdFP5310)
	}

	// Shape 6: diversity — DTLB MPKI spans more than an order of
	// magnitude across workloads (paper: 0.2 Nutch to 14 BFS).
	minD, maxD := 1e18, 0.0
	for _, r := range rows {
		d := r.k5645.DTLBMPKI()
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 10*minD {
		t.Errorf("shape6: DTLB diversity too narrow: %.3f .. %.3f", minD, maxD)
	}
	if byName["BFS"].DTLBMPKI() < byName["Nutch Server"].DTLBMPKI() {
		t.Error("shape6: BFS should out-miss Nutch in the DTLB")
	}

	// Shape 7: ITLB MPKI of big data well above the traditional suites.
	bdITLB := avg(sim.Counts.ITLBMPKI, false)
	for s, k := range suites {
		if k.ITLBMPKI() > bdITLB {
			t.Errorf("shape7: %s ITLB %.3f exceeds big-data %.3f", s, k.ITLBMPKI(), bdITLB)
		}
	}
}

// TestDataVolumeShapes verifies the Section 6.2 findings: metrics move
// with input volume (Grep MIPS gap; K-means L3 gap).
func TestDataVolumeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scale sweeps")
	}
	t.Parallel()
	cfg := Quick()
	m := sim.XeonE5645()
	runAt := func(w core.Workload, scale int) sim.Counts {
		in := cfg.Base
		in.Scale = scale
		res, err := core.Characterize(w, in, m)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts
	}
	// Grep MIPS: baseline well below 32× (paper: 2.9× gap).
	g1 := runAt(workloads.NewGrep(), 1)
	g32 := runAt(workloads.NewGrep(), 32)
	gap := g32.MIPS(m.Timing) / g1.MIPS(m.Timing)
	if gap < 1.5 {
		t.Errorf("grep MIPS 32×/baseline = %.2f, want a pronounced rise (paper 2.9)", gap)
	}
	// K-means L3 MPKI: larger input misses more (paper: 0.8 → 2.0).
	k1 := runAt(workloads.NewKMeans(), 1)
	k32 := runAt(workloads.NewKMeans(), 32)
	if k32.L3MPKI() < 1.3*k1.L3MPKI() {
		t.Errorf("kmeans L3 MPKI 32×/baseline = %.2f/%.2f, want ≥1.3× rise",
			k32.L3MPKI(), k1.L3MPKI())
	}
}
