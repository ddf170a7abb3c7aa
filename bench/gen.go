package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"repro/internal/cluster"
)

// keyLen is the fixed key width: "key" + 9 decimal digits, so byte order
// is index order and a scan's expected rows follow from its start index.
const keyLen = 12

// keyTable is a workload's pre-built keyspace. Every value is derived
// from its key — 8 bytes of the key's FNV-1a hash followed by a shared
// filler — so any Get or scan row can be checked without a shadow copy
// of the store, whatever order writes landed in.
type keyTable struct {
	keys     [][]byte
	hash     []uint64
	valueLen int
	filler   []byte
}

func newKeyTable(n, valueLen int) *keyTable {
	kt := &keyTable{
		keys:     make([][]byte, n),
		hash:     make([]uint64, n),
		valueLen: valueLen,
		filler:   make([]byte, valueLen),
	}
	for i := range kt.filler {
		kt.filler[i] = byte('a' + i%26)
	}
	backing := make([]byte, n*keyLen)
	for i := 0; i < n; i++ {
		k := backing[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		copy(k, "key")
		for d, v := keyLen-1, i; d >= 3; d-- {
			k[d] = byte('0' + v%10)
			v /= 10
		}
		h := fnv.New64a()
		h.Write(k)
		kt.keys[i] = k
		kt.hash[i] = h.Sum64()
	}
	return kt
}

// newValue returns a filler-initialised value buffer; stamp makes it the
// value of one key.
func (kt *keyTable) newValue() []byte { return append([]byte(nil), kt.filler...) }

func (kt *keyTable) stamp(v []byte, key int) { binary.LittleEndian.PutUint64(v, kt.hash[key]) }

// valid reports whether v is the value key must hold.
func (kt *keyTable) valid(key int, v []byte) bool {
	return len(v) == kt.valueLen &&
		binary.LittleEndian.Uint64(v) == kt.hash[key] &&
		v[len(v)-1] == kt.filler[len(v)-1]
}

// opGen emits one client's operation stream. It is deterministic from
// (seed, client) and allocation-free after construction: keys come from
// the table, and the op, index and value slices are recycled, so what
// the process allocates while it runs is the serving path's.
type opGen struct {
	kt   *keyTable
	sp   spec
	rng  *rand.Rand
	zipf *rand.Zipf
	ops  []cluster.Op
	keys []int    // key index of each op in ops
	vals [][]byte // one reusable Put value per batch slot
}

func newOpGen(kt *keyTable, sp spec, seed int64, client int) *opGen {
	g := &opGen{kt: kt, sp: sp, rng: rand.New(rand.NewSource(seed + int64(client)))}
	if sp.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 4, uint64(len(kt.keys)-1))
	}
	if !sp.scan() {
		g.ops = make([]cluster.Op, sp.batch)
		g.keys = make([]int, sp.batch)
		g.vals = make([][]byte, sp.batch)
		for i := range g.vals {
			g.vals[i] = kt.newValue()
		}
	}
	return g
}

// pick draws one key index: Zipf rank r is key r, so the hot set is the
// same keys under every seed and only the order of requests changes.
func (g *opGen) pick() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(len(g.kt.keys))
}

// nextBatch fills and returns the recycled batch; trace, when nonzero,
// is stamped on every op. The slice is valid until the next call.
func (g *opGen) nextBatch(trace uint64) []cluster.Op {
	for i := range g.ops {
		k := g.pick()
		g.keys[i] = k
		op := cluster.Op{Kind: cluster.OpGet, Key: g.kt.keys[k], Trace: trace}
		if g.rng.Float64() >= g.sp.readFrac {
			g.kt.stamp(g.vals[i], k)
			op.Kind, op.Value = cluster.OpPut, g.vals[i]
		}
		g.ops[i] = op
	}
	return g.ops
}

// nextScanStart draws the start key index of one scan.
func (g *opGen) nextScanStart() int { return g.rng.Intn(len(g.kt.keys)) }
