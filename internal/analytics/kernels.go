package analytics

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/bdgs"
)

// The job kernels shared by the distributed executor and the in-process
// references. Distributed-equals-local holds because both sides run
// exactly these functions over exactly the partition-stable inputs; the
// only thing that differs is where the work happens.

// textModels caches TextModel construction per vocabulary size — every
// map task regenerates its input slice, and the model (vocabulary
// synthesis) is the expensive part, not the lines.
var textModels sync.Map // int -> *bdgs.TextModel

func textModel(vocab int) *bdgs.TextModel {
	if m, ok := textModels.Load(vocab); ok {
		return m.(*bdgs.TextModel)
	}
	m := bdgs.NewTextModel(vocab)
	actual, _ := textModels.LoadOrStore(vocab, m)
	return actual.(*bdgs.TextModel)
}

// genLines regenerates input records [lo,hi) for the text jobs.
func genLines(j JobSpec, lo, hi int) [][]byte {
	return textModel(j.Vocab).LinesAt(j.Seed, lo, hi, j.WordsPerLine)
}

// defaultPattern derives the grep pattern the way the Grep workload
// does: a seed-dependent vocabulary word — present but selective.
func defaultPattern(j JobSpec) string {
	lines := textModel(j.Vocab).LinesAt(j.Seed+77, 0, 1, 1)
	return string(lines[0])
}

// graphs caches the stable web graph per (seed, bits, edgeFactor): every
// pagerank map task needs the adjacency of its vertex range, and the
// graph is deterministic, so executors build it once and share it.
var graphs sync.Map // [3]int64 -> *bdgs.Graph

func webGraph(j JobSpec) *bdgs.Graph {
	key := [3]int64{j.Seed, int64(j.GraphBits), int64(j.EdgeFactor)}
	if g, ok := graphs.Load(key); ok {
		return g.(*bdgs.Graph)
	}
	g := bdgs.StableGraph(j.Seed, j.GraphBits, j.EdgeFactor, bdgs.WebGraphParams(), true)
	actual, _ := graphs.LoadOrStore(key, g)
	return actual.(*bdgs.Graph)
}

// tokenize splits a record on single spaces, exactly as the WordCount
// workload's mapper does, so distributed and local word boundaries agree.
func tokenize(v []byte, emit func(word []byte)) {
	st := -1
	for i := 0; i <= len(v); i++ {
		if i < len(v) && v[i] != ' ' {
			if st < 0 {
				st = i
			}
			continue
		}
		if st >= 0 {
			emit(v[st:i])
			st = -1
		}
	}
}

// grepMatch reports whether the record contains the pattern.
func grepMatch(v []byte, pattern string) bool {
	return bytes.Contains(v, []byte(pattern))
}

// partitionText hashes a text key to its shuffle partition with the same
// FNV-32a rule the in-process mapreduce engine uses.
func partitionText(key []byte, n int) int {
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// partitionU32 spreads numeric keys (vertices, cluster ids) across
// partitions with a mixed hash, so skewed id spaces still balance.
func partitionU32(key uint32, n int) int {
	v := uint64(key)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return int(v % uint64(n))
}

// ---- numeric row packing -------------------------------------------------

func u32Bytes(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func u32From(b []byte) (uint32, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(b), true
}

// contribBytes packs one pagerank contribution: source vertex + share.
func contribBytes(src uint32, share float64) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[:4], src)
	binary.BigEndian.PutUint64(b[4:], math.Float64bits(share))
	return b[:]
}

func contribFrom(b []byte) (src uint32, share float64, ok bool) {
	if len(b) != 12 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(b[:4]),
		math.Float64frombits(binary.BigEndian.Uint64(b[4:])), true
}

// sumBytes packs one pagerank reduce output: the folded rank mass.
func sumBytes(sum float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(sum))
	return b[:]
}

func sumFrom(b []byte) (float64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), true
}

// accBytes packs one kmeans reduce output: member count + summed vector.
func accBytes(n int64, sum []float64) []byte {
	b := make([]byte, 8+8*len(sum))
	binary.BigEndian.PutUint64(b, uint64(n))
	for i, x := range sum {
		binary.BigEndian.PutUint64(b[8+8*i:], math.Float64bits(x))
	}
	return b
}

func accFrom(b []byte) (n int64, sum []float64, ok bool) {
	if len(b) < 8 || (len(b)-8)%8 != 0 {
		return 0, nil, false
	}
	n = int64(binary.BigEndian.Uint64(b))
	sum = make([]float64, (len(b)-8)/8)
	for i := range sum {
		sum[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	return n, sum, true
}

// kmCenters caches the latent mixture centers per (seed, dim, k): the
// distributed reduce regenerates member vectors one index at a time,
// and rebuilding the centers per vector would dominate it.
var kmCenters sync.Map // [3]int64 -> [][]float64

func kmeansCenters(j JobSpec) [][]float64 {
	key := [3]int64{j.Seed, int64(j.Dim), int64(j.K)}
	if c, ok := kmCenters.Load(key); ok {
		return c.([][]float64)
	}
	c := bdgs.StableCenters(j.Seed, j.Dim, j.K)
	actual, _ := kmCenters.LoadOrStore(key, c)
	return actual.([][]float64)
}

// kmeansVectors regenerates vectors [lo,hi) from the partition-stable
// generator.
func kmeansVectors(j JobSpec, lo, hi int) [][]float64 {
	return bdgs.StableVectors(j.Seed, lo, hi, j.Dim, j.K)
}

// kmeansVectorAt regenerates one vector against the cached centers.
func kmeansVectorAt(j JobSpec, i int) []float64 {
	return bdgs.StableVectorAt(kmeansCenters(j), j.Seed, i)
}

// nearestCentroid is the assignment step, iterating clusters in
// ascending order with a strict < so ties break to the lowest id —
// byte-identical to the KMeans workload's loop.
func nearestCentroid(v []float64, cents [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range cents {
		d := 0.0
		for j, x := range v {
			diff := x - cents[c][j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
