package bdgs

import (
	"math/rand"
	"slices"
	"sync"
)

// Partition-stable generation.
//
// The sequential generators (TextModel.Lines, GenGraph, Vectors,
// ResumeModel.Generate) draw every item from one PRNG stream, so the data
// an item gets depends on how many items were generated before it — fine
// for one process, wrong for a distributed engine where each node
// generates only its slice of the input. The Stable* variants derive an
// independent PRNG per item from (seed, item index), so generating items
// [lo,hi) yields byte-identical data no matter how the index space is cut
// into partitions or which workers generate which cut. This is the
// property internal/analytics relies on for distributed-vs-local result
// equality: every node regenerates exactly the records it owns.
//
// Each item's stream is rand.NewSource(itemSeed(...))'s bit for bit, drawn
// from a lazily seeded itemSource that a range call reseeds per item;
// TestStableGeneratorsGolden pins every generator's bytes.

// itemSeed derives the per-item PRNG seed for item i of stream. The
// stream constant separates item spaces (lines, edges, vectors, rows) so
// the same (seed, i) never aliases across generators.
func itemSeed(seed int64, stream uint64, i int) int64 {
	v := uint64(seed) ^ stream ^ (uint64(i) * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer: adjacent indices land far apart.
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v >> 1) // non-negative
}

// Generator stream tags for itemSeed.
const (
	streamLines   = 0x11e5a11e5
	streamEdges   = 0xed6e5ed6e
	streamVectors = 0x7ec707ec7
	streamResumes = 0x2e50e2e50
)

// LinesAt generates text lines [lo,hi) of the record-oriented input
// (compare Lines): each line is drawn from its own (seed, index)-derived
// sampler, so the line at index i is identical whether the index space is
// generated whole or in partitions of any size or order. Lines share
// chunks, capacity-clipped so appending to one never overwrites the next.
func (m *TextModel) LinesAt(seed int64, lo, hi, wordsPerLine int) [][]byte {
	const chunk = 64 << 10
	s := m.newSampler(itemRand())
	lines := make([][]byte, 0, max(hi-lo, 0))
	var buf []byte
	for i := lo; i < hi; i++ {
		s.r.Seed(itemSeed(seed, streamLines, i))
		if cap(buf)-len(buf) < chunk/16 { // a line past 4 KiB reallocates, safely
			buf = make([]byte, 0, chunk)
		}
		st := len(buf)
		buf = m.appendLine(s, wordsPerLine, buf)
		lines = append(lines, buf[st:len(buf):len(buf)])
	}
	return lines
}

// StableEdges generates directed R-MAT edges [lo,hi) of the scale-2^scale
// graph's edgeFactor·2^scale edge attempts. Each attempt is drawn from
// its own derived PRNG; attempts that land on a self-loop are dropped (as
// GenGraph drops them), and the drop decision depends only on (seed,
// index), so the union of any partitioning of [0, attempts) is always the
// same edge multiset in the same index order.
func StableEdges(seed int64, scale, edgeFactor int, p RMATParams, lo, hi int) [][2]int32 {
	r := itemRand()
	out := make([][2]int32, 0, max(hi-lo, 0))
	for e := lo; e < hi; e++ {
		r.Seed(itemSeed(seed, streamEdges, e))
		u, v := rmatEdge(r, scale, p)
		if u == v {
			continue
		}
		out = append(out, [2]int32{int32(u), int32(v)})
	}
	return out
}

// StableGraph builds the full graph from StableEdges, so any node can
// regenerate exactly the adjacency a partitioned sweep would have
// produced. Adjacency lists append in edge-index order (and are
// sort+deduped for undirected graphs), matching GenGraph's construction.
func StableGraph(seed int64, scale, edgeFactor int, p RMATParams, directed bool) *Graph {
	n := 1 << uint(scale)
	g := &Graph{N: n, Adj: make([][]int32, n), Directed: directed}
	for _, e := range StableEdges(seed, scale, edgeFactor, p, 0, n*edgeFactor) {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		if !directed {
			g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
		}
		g.edges++
	}
	if !directed {
		for v, a := range g.Adj {
			slices.Sort(a)
			g.Adj[v] = slices.Compact(a)
		}
	}
	return g
}

// StableVectors generates feature vectors [lo,hi) of the n-vector K-means
// input (compare Vectors). The k latent cluster centers depend only on
// seed; each vector then draws its cluster choice and noise from its own
// derived PRNG.
func StableVectors(seed int64, lo, hi, dim, k int) [][]float64 {
	centers := StableCenters(seed, dim, k)
	r := itemRand()
	out := make([][]float64, 0, max(hi-lo, 0))
	for i := lo; i < hi; i++ {
		r.Seed(itemSeed(seed, streamVectors, i))
		out = append(out, vectorFrom(r, centers))
	}
	return out
}

// StableCenters derives the latent mixture centers from seed alone.
// Callers generating many vectors one index at a time (the distributed
// k-means reduce) compute them once and reuse them via StableVectorAt.
func StableCenters(seed int64, dim, k int) [][]float64 {
	return centersFrom(rng(seed), dim, k)
}

// vectorRands serves StableVectorAt, which the k-means reduce calls per row.
var vectorRands = sync.Pool{New: func() any { return itemRand() }}

// StableVectorAt generates vector i against precomputed centers.
func StableVectorAt(centers [][]float64, seed int64, i int) []float64 {
	r := vectorRands.Get().(*rand.Rand)
	r.Seed(itemSeed(seed, streamVectors, i))
	v := vectorFrom(r, centers)
	vectorRands.Put(r)
	return v
}

// StableResumes generates resumé rows [lo,hi) (compare
// ResumeModel.Generate), each from its own derived PRNG. total is the
// full row count — it sizes the name space exactly as the sequential
// generator does, so a row's content depends on (seed, index, total) but
// never on the partitioning.
func (ResumeModel) StableResumes(seed int64, lo, hi, total int) []Resume {
	r := itemRand()
	out := make([]Resume, 0, max(hi-lo, 0))
	for i := lo; i < hi; i++ {
		r.Seed(itemSeed(seed, streamResumes, i))
		out = append(out, resumeAt(r, i, total))
	}
	return out
}
