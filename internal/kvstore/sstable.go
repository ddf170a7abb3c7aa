package kvstore

import (
	"bytes"
	"sort"
	"sync/atomic"

	"repro/internal/sim"
)

// Entry is one key-value pair as returned by Get/Scan.
type Entry struct {
	Key   []byte
	Value []byte
}

// row is the internal representation including tombstones. seq is the
// store-wide write sequence that produced the row; merges keep the
// highest sequence per key.
type row struct {
	key  []byte
	val  []byte
	seq  uint64
	tomb bool
}

// blockRows is the modeled block granularity: the run is charged (and
// block-cached) in groups of blockRows adjacent rows, standing in for
// the HFile/LevelDB data blocks a real store reads from disk.
const blockRows = 16

// tableIDs hands out process-unique run identities for block-cache keys.
var tableIDs atomic.Uint64

// sstable is one immutable sorted run with a bloom filter — the in-memory
// analogue of an HBase HFile / LevelDB table.
type sstable struct {
	id     uint64
	rows   []row
	bloom  bloomFilter
	bytes  int
	region sim.DataRegion
}

func buildSSTable(rows []row, bitsPerKey int, cpu *sim.CPU) *sstable {
	t := &sstable{id: tableIDs.Add(1), rows: rows, bloom: newBloom(len(rows), bitsPerKey)}
	for _, r := range rows {
		t.bloom.add(r.key)
		t.bytes += len(r.key) + len(r.val) + 8
	}
	t.region = cpu.Alloc("kvstore.sstable", uint64(t.bytes)+64)
	return t
}

// blocks is the modeled block count.
func (t *sstable) blocks() int { return (len(t.rows) + blockRows - 1) / blockRows }

// blockSpan maps block b to its modeled byte span inside the run. Row
// sizes are approximated as uniform; the charge is capped so one block
// fill stays within a few cache lines of a real block read.
func (t *sstable) blockSpan(b int) (off uint64, n int) {
	nb := t.blocks()
	if nb == 0 {
		return 0, 0
	}
	per := t.bytes / nb
	if per > 2048 {
		per = 2048
	}
	if per < 64 {
		per = 64
	}
	return uint64(b) * uint64(per), per
}

// find binary-searches for key, returning the row, the terminal index
// (the first row >= key, i.e. the seek position), whether the key was
// found, and the probe count.
func (t *sstable) find(key []byte) (row, int, bool, int) {
	lo, hi, probes := 0, len(t.rows), 0
	for lo < hi {
		mid := (lo + hi) / 2
		probes++
		if bytes.Compare(t.rows[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.rows) && bytes.Equal(t.rows[lo].key, key) {
		return t.rows[lo], lo, true, probes
	}
	return row{}, lo, false, probes
}

// seek returns the index of the first row with key >= start.
func (t *sstable) seek(start []byte) int {
	return sort.Search(len(t.rows), func(i int) bool {
		return bytes.Compare(t.rows[i].key, start) >= 0
	})
}

// bloomFilter is a split-free double-hashing Bloom filter.
type bloomFilter struct {
	bits  []uint64
	nbits uint64
	k     int
}

func newBloom(n, bitsPerKey int) bloomFilter {
	if n == 0 {
		n = 1
	}
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	nbits := uint64(n*bitsPerKey + 63)
	k := bitsPerKey * 69 / 100
	if k < 1 {
		k = 1
	}
	if k > 12 {
		k = 12
	}
	return bloomFilter{bits: make([]uint64, nbits/64+1), nbits: nbits, k: k}
}

func bloomHashes(key []byte) (uint64, uint64) {
	var h1 uint64 = 14695981039346656037
	for _, b := range key {
		h1 ^= uint64(b)
		h1 *= 1099511628211
	}
	h2 := h1*0xff51afd7ed558ccd ^ h1>>33
	return h1, h2 | 1
}

func (f bloomFilter) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (f bloomFilter) mayContain(key []byte) bool {
	if f.nbits == 0 {
		return false
	}
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// mergeRows k-way merges sorted runs; for duplicate keys the row with the
// highest sequence wins (ties break toward the later run, which callers
// order oldest→newest). Tombstones are dropped — legal only because the
// merge covers every run, so no older copy of the key survives outside it.
func mergeRows(runs [][]row) []row {
	idx := make([]int, len(runs))
	var out []row
	for {
		best := -1
		for i := range runs {
			if idx[i] >= len(runs[i]) {
				continue
			}
			if best == -1 || bytes.Compare(runs[i][idx[i]].key, runs[best][idx[best]].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		winner := runs[best][idx[best]]
		// Among all runs positioned at this key, keep the newest version.
		for i := range runs {
			if i == best || idx[i] >= len(runs[i]) {
				continue
			}
			if r := runs[i][idx[i]]; bytes.Equal(r.key, winner.key) && r.seq >= winner.seq {
				winner = r
			}
		}
		for i := range runs {
			for idx[i] < len(runs[i]) && bytes.Equal(runs[i][idx[i]].key, winner.key) {
				idx[i]++
			}
		}
		if winner.tomb {
			continue
		}
		out = append(out, winner)
	}
}
