package workloads

import (
	"strings"
	"testing"

	"repro/internal/bdgs"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sim"
)

// Cross-module consistency: the Index workload (MapReduce pipeline) must
// agree with the search package's direct index builder on the number of
// distinct terms for the same corpus.
func TestIndexWorkloadAgreesWithSearchBuild(t *testing.T) {
	in := tinyInput()
	res, err := NewIndex().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	norm := in.Normalize()
	pages := bdgs.NewTextModel(vocabSize).Pages(norm.Seed, norm.Pages(), 200)
	docs := make([]search.Document, len(pages))
	for i, p := range pages {
		// The workload indexes bodies only; match that here.
		docs[i] = search.Document{ID: p.ID, Body: p.Body}
	}
	ix := search.Build(docs, nil)
	if int(res.Extra["terms"]) != ix.Terms() {
		t.Errorf("Index workload found %.0f terms, search.Build found %d",
			res.Extra["terms"], ix.Terms())
	}
}

// Cross-module consistency: Grep's match count must equal a direct scan
// over the same generated lines.
func TestGrepAgainstReferenceScan(t *testing.T) {
	in := tinyInput().Normalize()
	res, err := NewGrep().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	pattern := bdgs.NewTextModel(vocabSize).Lines(in.Seed+77, 1, 1)
	pat := string(pattern[0])
	recs, _ := textLines(in.Seed, in.Bytes(32))
	want := 0
	for _, r := range recs {
		if strings.Contains(r.Value, pat) {
			want++
		}
	}
	if int(res.Extra["matches"]) != want {
		t.Errorf("grep found %.0f matches, reference scan found %d",
			res.Extra["matches"], want)
	}
}

// Determinism gate: characterized runs with the same seed and machine
// produce byte-identical counter snapshots (required for reproducible
// figures). Run on two representative workloads with single-worker
// substrates, where the event interleaving is fixed.
//
// The Cloud-OLTP rows (Figures 2-6) are further pinned to recorded
// literals: every simulated charge of the storage engine's write, flush,
// compaction, point-read and scan paths lands in these counters, so an
// engine refactor that claims to preserve behaviour must leave them
// bit-identical.
func TestCharacterizationDeterminism(t *testing.T) {
	in := tinyInput()
	in.Workers = 1
	for _, w := range []core.Workload{NewGrep(), NewSelectQuery()} {
		a, err := core.Characterize(w, in, sim.XeonE5645())
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Characterize(w, in, sim.XeonE5645())
		if err != nil {
			t.Fatal(err)
		}
		if a.Counts != b.Counts {
			t.Errorf("%s: counters differ across identical runs", w.Name())
		}
	}

	// 8 MiB of resumés: with 1 MiB memtables and the default MaxRuns of
	// 6, Write flushes nine times and compacts once, and Read and Scan
	// serve from the runs and the compacted output of the same load.
	// About 2 s of simulation, twenty times that under -race.
	if testing.Short() {
		return
	}
	in.ScaleUnit = 1 << 18
	for _, c := range []struct {
		w    core.Workload
		want sim.Counts
	}{
		{NewRead(), sim.Counts{LoadInstrs: 2608559, StoreInstrs: 27048, IntInstrs: 39496094, FPInstrs: 262140, BranchInstrs: 8726982,
			L1I: sim.CacheStats{Accesses: 4309027, Misses: 595726}, L1D: sim.CacheStats{Accesses: 636168, Misses: 538465, DirtyEvicts: 6924},
			L2: sim.CacheStats{Accesses: 1134191, Misses: 835884, DirtyEvicts: 9330}, L3: sim.CacheStats{Accesses: 835884, Misses: 99687, DirtyEvicts: 99542},
			HasL3: true, ITLB: sim.TLBStats{Accesses: 4309027, Misses: 64}, DTLB: sim.TLBStats{Accesses: 374039, Misses: 319894},
			DRAMReadBytes: 6379968, DRAMWriteBytes: 6370688}},
		{NewWrite(), sim.Counts{LoadInstrs: 1497643, StoreInstrs: 3049806, IntInstrs: 34030394, FPInstrs: 209712, BranchInstrs: 7962794,
			L1I: sim.CacheStats{Accesses: 3894611, Misses: 1033170}, L1D: sim.CacheStats{Accesses: 1043004, Misses: 931689, DirtyEvicts: 375258},
			L2: sim.CacheStats{Accesses: 1964859, Misses: 1573317, DirtyEvicts: 371270}, L3: sim.CacheStats{Accesses: 1573317, Misses: 265844, DirtyEvicts: 69233},
			HasL3: true, ITLB: sim.TLBStats{Accesses: 3894611, Misses: 22894}, DTLB: sim.TLBStats{Accesses: 514980, Misses: 360679},
			DRAMReadBytes: 17014016, DRAMWriteBytes: 4430912}},
		{NewScan(), sim.Counts{LoadInstrs: 758149, StoreInstrs: 19648, IntInstrs: 4326002, FPInstrs: 53422, BranchInstrs: 959148,
			L1I: sim.CacheStats{Accesses: 699665, Misses: 9243}, L1D: sim.CacheStats{Accesses: 116115, Misses: 111268, DirtyEvicts: 5077},
			L2: sim.CacheStats{Accesses: 120511, Misses: 118820, DirtyEvicts: 7384}, L3: sim.CacheStats{Accesses: 118820, Misses: 58690, DirtyEvicts: 58670},
			HasL3: true, ITLB: sim.TLBStats{Accesses: 699665, Misses: 40}, DTLB: sim.TLBStats{Accesses: 25489, Misses: 21270},
			DRAMReadBytes: 3756160, DRAMWriteBytes: 3754880}},
	} {
		res, err := core.Characterize(c.w, in, sim.XeonE5645())
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts != c.want {
			t.Errorf("%s: counters drifted from the recorded characterization\n got %+v\nwant %+v", c.w.Name(), res.Counts, c.want)
		}
		if c.w.Name() == "Write" && (res.Extra["flushes"] < 7 || res.Extra["compactions"] < 1) {
			t.Errorf("Write: %v flushes, %v compactions; the pin needs >= 7 and >= 1",
				res.Extra["flushes"], res.Extra["compactions"])
		}
	}
}

// The workloads must honour Workers: results do not change with
// parallelism, only wall-clock time may.
func TestWorkerCountInvariance(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		in := tinyInput()
		in.Workers = workers
		res, err := NewWordCount().Run(in)
		if err != nil {
			t.Fatal(err)
		}
		want := runTiny(t, NewWordCount(), false).Extra["distinctWords"]
		if res.Extra["distinctWords"] != want {
			t.Errorf("workers=%d changed the result: %.0f vs %.0f",
				workers, res.Extra["distinctWords"], want)
		}
	}
}

// Scaling sanity: doubling Scale roughly doubles processed units for the
// byte-metered workloads.
func TestUnitsScaleWithInput(t *testing.T) {
	in := tinyInput()
	r1, err := NewSort().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 4
	r4, err := NewSort().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r4.Units) / float64(r1.Units)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4× scale processed %.2f× the bytes", ratio)
	}
}

// E5310 runs must work for every workload (Figure 5 needs both machines).
func TestSuiteRunsOnE5310(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	for _, w := range All() {
		in := tinyInput()
		res, err := core.Characterize(w, in, sim.XeonE5310())
		if err != nil {
			t.Fatalf("%s on E5310: %v", w.Name(), err)
		}
		if res.Counts.HasL3 {
			t.Fatalf("%s: E5310 run reports an L3", w.Name())
		}
		if res.Counts.Instructions() == 0 {
			t.Fatalf("%s: no instructions on E5310", w.Name())
		}
	}
}
