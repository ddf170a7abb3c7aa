package bdgs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestStableLinesPartitionInvariant: the text an index yields must not
// depend on how the index space is partitioned — the property the
// distributed analytics engine needs to regenerate each node's input
// slice independently.
func TestStableLinesPartitionInvariant(t *testing.T) {
	m := NewTextModel(2000)
	const n = 500
	whole := m.LinesAt(7, 0, n, 10)
	if len(whole) != n {
		t.Fatalf("LinesAt(0,%d) returned %d lines", n, len(whole))
	}
	for _, parts := range []int{2, 3, 7, n} {
		var got [][]byte
		for p := 0; p < parts; p++ {
			lo, hi := n*p/parts, n*(p+1)/parts
			got = append(got, m.LinesAt(7, lo, hi, 10)...)
		}
		if len(got) != n {
			t.Fatalf("parts=%d: %d lines, want %d", parts, len(got), n)
		}
		for i := range got {
			if !bytes.Equal(got[i], whole[i]) {
				t.Fatalf("parts=%d: line %d = %q, want %q", parts, i, got[i], whole[i])
			}
		}
	}
}

// TestStableLinesParallelInvariant: concurrent generation of disjoint
// ranges yields the same data as a single sweep (no hidden shared state).
func TestStableLinesParallelInvariant(t *testing.T) {
	m := NewTextModel(2000)
	const n, parts = 400, 8
	whole := m.LinesAt(3, 0, n, 8)
	got := make([][][]byte, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			got[p] = m.LinesAt(3, n*p/parts, n*(p+1)/parts, 8)
		}(p)
	}
	wg.Wait()
	i := 0
	for p := 0; p < parts; p++ {
		for _, line := range got[p] {
			if !bytes.Equal(line, whole[i]) {
				t.Fatalf("parallel line %d = %q, want %q", i, line, whole[i])
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("parallel generation produced %d lines, want %d", i, n)
	}
}

// TestStableEdgesPartitionInvariant: chunked edge sweeps concatenate to
// the whole sweep, and the graph built from them matches StableGraph.
func TestStableEdgesPartitionInvariant(t *testing.T) {
	const scale, ef = 8, 6
	p := WebGraphParams()
	attempts := (1 << scale) * ef
	whole := StableEdges(11, scale, ef, p, 0, attempts)
	for _, parts := range []int{2, 5, 16} {
		var got [][2]int32
		for c := 0; c < parts; c++ {
			lo, hi := attempts*c/parts, attempts*(c+1)/parts
			got = append(got, StableEdges(11, scale, ef, p, lo, hi)...)
		}
		if len(got) != len(whole) {
			t.Fatalf("parts=%d: %d edges, want %d", parts, len(got), len(whole))
		}
		for i := range got {
			if got[i] != whole[i] {
				t.Fatalf("parts=%d: edge %d = %v, want %v", parts, i, got[i], whole[i])
			}
		}
	}
	g := StableGraph(11, scale, ef, p, true)
	if g.Edges() != len(whole) {
		t.Fatalf("StableGraph edges = %d, want %d", g.Edges(), len(whole))
	}
	rebuilt := make([][]int32, g.N)
	for _, e := range whole {
		rebuilt[e[0]] = append(rebuilt[e[0]], e[1])
	}
	for v := range rebuilt {
		if len(rebuilt[v]) != len(g.Adj[v]) {
			t.Fatalf("vertex %d degree %d, want %d", v, len(g.Adj[v]), len(rebuilt[v]))
		}
		for j := range rebuilt[v] {
			if rebuilt[v][j] != g.Adj[v][j] {
				t.Fatalf("vertex %d adj[%d] = %d, want %d", v, j, g.Adj[v][j], rebuilt[v][j])
			}
		}
	}
	// Degree skew sanity: the stable generator must still be R-MAT-shaped.
	max := 0
	for _, a := range g.Adj {
		if len(a) > max {
			max = len(a)
		}
	}
	if max < 4*ef {
		t.Fatalf("max out-degree %d suggests the power-law skew is gone", max)
	}
}

// TestStableVectorsPartitionInvariant: vectors and their latent cluster
// structure must be partition-independent.
func TestStableVectorsPartitionInvariant(t *testing.T) {
	const n, dim, k = 300, 8, 4
	whole := StableVectors(5, 0, n, dim, k)
	for _, parts := range []int{2, 3, 10} {
		i := 0
		for c := 0; c < parts; c++ {
			lo, hi := n*c/parts, n*(c+1)/parts
			for _, v := range StableVectors(5, lo, hi, dim, k) {
				for d := range v {
					if v[d] != whole[i][d] {
						t.Fatalf("parts=%d: vec %d dim %d = %v, want %v",
							parts, i, d, v[d], whole[i][d])
					}
				}
				i++
			}
		}
		if i != n {
			t.Fatalf("parts=%d produced %d vectors, want %d", parts, i, n)
		}
	}
}

// TestStableVectorAtParallelInvariant: one vector at a time from several
// goroutines, as the k-means reduce draws them, must match the range
// sweep — the pooled generators must not leak state between callers.
func TestStableVectorAtParallelInvariant(t *testing.T) {
	const n, dim, k = 300, 8, 4
	whole := StableVectors(5, 0, n, dim, k)
	centers := StableCenters(5, dim, k)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				if v := StableVectorAt(centers, 5, i); !slices.Equal(v, whole[i]) {
					t.Errorf("StableVectorAt(%d) = %v, want %v", i, v, whole[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStableResumesPartitionInvariant: table rows must be identical
// however the row space is cut.
func TestStableResumesPartitionInvariant(t *testing.T) {
	var m ResumeModel
	const n = 250
	whole := m.StableResumes(9, 0, n, n)
	for _, parts := range []int{2, 4, 9} {
		i := 0
		for c := 0; c < parts; c++ {
			lo, hi := n*c/parts, n*(c+1)/parts
			for _, re := range m.StableResumes(9, lo, hi, n) {
				if !bytes.Equal(re.Encode(), whole[i].Encode()) {
					t.Fatalf("parts=%d: row %d = %+v, want %+v", parts, i, re, whole[i])
				}
				i++
			}
		}
		if i != n {
			t.Fatalf("parts=%d produced %d rows, want %d", parts, i, n)
		}
	}
}

// TestStableSeedSensitivity: different seeds must change the data (a
// regression guard against the per-item seed derivation collapsing).
func TestStableSeedSensitivity(t *testing.T) {
	m := NewTextModel(2000)
	a := m.LinesAt(1, 0, 50, 10)
	b := m.LinesAt(2, 0, 50, 10)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 generated identical lines")
	}
	if itemSeed(1, streamLines, 0) == itemSeed(1, streamEdges, 0) {
		t.Fatal("stream tags do not separate item spaces")
	}
}

// hashItems digests each item's %v form, one per line.
func hashItems[T any](items []T) string {
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintf(h, "%v\n", it)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStableGeneratorsGolden pins the bytes every partition-stable
// generator yields. The hashes were recorded with per-item
// rand.NewSource generators; the lazily seeded source must reproduce
// them exactly, or distributed jobs and stored benchmark inputs drift.
func TestStableGeneratorsGolden(t *testing.T) {
	var m ResumeModel
	for _, c := range []struct {
		name, got, want string
	}{
		{"LinesAt", hashItems(NewTextModel(30000).LinesAt(1, 0, 20000, 10)),
			"8554d1d40f1c95f385505e28842227f0cdf67580f6efa333e7e3745966031a55"},
		{"StableEdges", hashItems(StableEdges(1, 11, 6, WebGraphParams(), 0, 6<<11)),
			"a96e74b6d3db268b642aff541a3fe2cf5731990838f509677edf7c4ce8c4e24e"},
		{"StableVectors", hashItems(StableVectors(1, 0, 4096, 16, 8)),
			"ea1661316d67c2802647e0c7332f90d53f95800a5de541e758bcb2efa51ddb4e"},
		{"StableResumes", hashItems(m.StableResumes(1, 0, 2000, 2000)),
			"2b782dc38106e801b97df1e175153fd095a5f22b902f96654ff8d88e774423e4"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestStableLinesAllocsAndAliasing: LinesAt seeds one source per call,
// not per line, and carves lines from shared chunks — so its
// allocations are a small constant, and each line's capacity is clipped
// so that appending to it cannot overwrite its neighbour.
func TestStableLinesAllocsAndAliasing(t *testing.T) {
	m := NewTextModel(30000)
	if a := testing.AllocsPerRun(5, func() { m.LinesAt(1, 0, 1000, 10) }); a > 12 {
		t.Errorf("LinesAt of 1000 lines: %.0f allocs, want <= 12", a)
	}
	lines := m.LinesAt(1, 0, 3, 10)
	next := string(lines[1])
	_ = append(lines[0], "overflow"...)
	if string(lines[1]) != next {
		t.Fatalf("appending to line 0 changed line 1 to %q, want %q", lines[1], next)
	}
}
