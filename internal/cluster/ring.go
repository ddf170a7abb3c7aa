package cluster

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. The zero value is not
// usable; construct with NewRing. Ring itself is not synchronized: a
// ClusterView builds its ring once and never mutates it again, so
// membership changes derive a new view (and ring) instead of editing one.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	member map[int]bool
}

// ringPoint is one virtual node on the circle.
type ringPoint struct {
	hash uint64
	node int
}

// NewRing creates an empty ring placing vnodes virtual nodes per member
// (default 64 when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	return &Ring{vnodes: vnodes, member: map[int]bool{}}
}

// hashKey is FNV-1a 64, matching the store's Bloom hash family but kept
// separate so ring placement and filter bits stay uncorrelated.
func hashKey(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// Final avalanche so short sequential keys spread over the circle.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Add places a member's virtual nodes on the circle. Adding an existing
// member is a no-op.
func (r *Ring) Add(node int) {
	if r.member[node] {
		return
	}
	r.member[node] = true
	for v := 0; v < r.vnodes; v++ {
		label := "node-" + strconv.Itoa(node) + "#" + strconv.Itoa(v)
		r.points = append(r.points, ringPoint{hash: hashKey([]byte(label)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.member) }

// Contains reports whether node is on the ring.
func (r *Ring) Contains(node int) bool { return r.member[node] }

// Members returns the member ids in ascending order.
func (r *Ring) Members() []int {
	out := make([]int, 0, len(r.member))
	for id := range r.member {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Primary returns the key's first owner, or -1 on an empty ring. It is
// allocation-free — the point-read hot path resolves routing with it.
func (r *Ring) Primary(key []byte) int {
	if len(r.points) == 0 {
		return -1
	}
	start := r.search(key)
	return r.points[start%len(r.points)].node
}

// search returns the index of the first ring point at or after the key's
// hash (may equal len(points), i.e. wrap).
func (r *Ring) search(key []byte) int {
	h := hashKey(key)
	return sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
}

// Owners returns the first n distinct members clockwise from the key's
// hash: the primary followed by its replica successors. Fewer than n are
// returned when the ring has fewer members. The result is freshly
// allocated; AppendOwners is the form for callers that keep a buffer.
func (r *Ring) Owners(key []byte, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.AppendOwners(make([]int, 0, min(n, len(r.member))), key, n)
}

// AppendOwners is Owners appending to dst. Dedup is a linear probe of
// the small result — R is a handful — so the per-op routing cost stays
// flat in vnode count.
func (r *Ring) AppendOwners(dst []int, key []byte, n int) []int {
	if len(r.points) == 0 {
		return dst
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	start := r.search(key)
	base := len(dst)
	for i := 0; len(dst)-base < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		dup := false
		for _, o := range dst[base:] {
			if o == p.node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p.node)
		}
	}
	return dst
}
