package bdgs

import (
	"math/rand"
	"slices"
)

// RMATParams are the recursive-matrix edge-placement probabilities. They
// must sum to 1. Skewed parameters yield power-law degree distributions,
// the defining characteristic of both graph seeds.
type RMATParams struct {
	A, B, C, D float64
}

// WebGraphParams matches the Google web graph seed: sparse (average
// out-degree ≈ 5.8) and strongly skewed, Graph500-style.
func WebGraphParams() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05} }

// SocialGraphParams matches the Facebook social graph seed: denser
// (average degree ≈ 44) with more symmetric structure.
func SocialGraphParams() RMATParams { return RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.11} }

// Graph is a compact adjacency-list graph with int32 vertex IDs.
// For undirected graphs each edge appears in both endpoint lists.
type Graph struct {
	N        int
	Adj      [][]int32
	Directed bool
	edges    int
}

// Edges returns the number of stored edge endpoints' logical edges.
func (g *Graph) Edges() int { return g.edges }

// Degree returns the (out-)degree of vertex v.
func (g *Graph) Degree(v int32) int { return len(g.Adj[v]) }

// BytesApprox estimates the in-memory/serialized footprint (8 bytes per
// stored endpoint, matching an edge-list file of two int32 per edge).
func (g *Graph) BytesApprox() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a) * 4
	}
	return total + g.N*4
}

// GenGraph generates a graph with 2^scale vertices and edgeFactor edges per
// vertex using R-MAT recursive quadrant sampling (the BDGS graph
// generator's method). Self-loops are dropped; duplicate edges are kept for
// directed graphs (multi-links exist in web graphs) and deduplicated for
// undirected ones.
func GenGraph(seed int64, scale, edgeFactor int, p RMATParams, directed bool) *Graph {
	n := 1 << uint(scale)
	m := n * edgeFactor
	r := rng(seed)
	g := &Graph{N: n, Adj: make([][]int32, n), Directed: directed}
	for e := 0; e < m; e++ {
		u, v := rmatEdge(r, scale, p)
		if u == v {
			continue
		}
		g.Adj[u] = append(g.Adj[u], int32(v))
		if !directed {
			g.Adj[v] = append(g.Adj[v], int32(u))
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

func rmatEdge(r *rand.Rand, scale int, p RMATParams) (int, int) {
	u, v := 0, 0
	for bit := 0; bit < scale; bit++ {
		x := r.Float64()
		switch {
		case x < p.A:
			// quadrant (0,0)
		case x < p.A+p.B:
			v |= 1 << uint(bit)
		case x < p.A+p.B+p.C:
			u |= 1 << uint(bit)
		default:
			u |= 1 << uint(bit)
			v |= 1 << uint(bit)
		}
	}
	return u, v
}

// EdgeList flattens the graph to (src,dst) pairs, the on-disk format the
// BDGS conversion tools feed to the graph workloads. For undirected graphs
// each edge is emitted once (src < dst).
func (g *Graph) EdgeList() [][2]int32 {
	var out [][2]int32
	for u, a := range g.Adj {
		for _, v := range a {
			if !g.Directed && int32(u) > v {
				continue
			}
			out = append(out, [2]int32{int32(u), v})
		}
	}
	return out
}

// DegreeHistogram returns counts of vertices by degree, used by the
// veracity tests to check the power-law shape.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, a := range g.Adj {
		h[len(a)]++
	}
	return h
}
