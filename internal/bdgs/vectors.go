package bdgs

import "math/rand"

// Vectors generates n feature vectors of dimension dim drawn from k latent
// Gaussian clusters — the K-means input. Real BigDataBench derives such
// vectors from the social-network text via feature extraction; generating
// them from a latent mixture preserves what matters to the workload:
// cluster structure with noise, so Lloyd's algorithm converges in a
// realistic number of iterations rather than degenerating.
func Vectors(seed int64, n, dim, k int) [][]float64 {
	r := rng(seed)
	centers := centersFrom(r, dim, k)
	out := make([][]float64, n)
	for i := range out {
		out[i] = vectorFrom(r, centers)
	}
	return out
}

// centersFrom draws k latent cluster centers in [0,100)^dim.
func centersFrom(r *rand.Rand, dim, k int) [][]float64 {
	centers := make([][]float64, k)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = r.Float64() * 100
		}
		centers[i] = c
	}
	return centers
}

// vectorFrom draws one vector: a random center plus Gaussian noise.
func vectorFrom(r *rand.Rand, centers [][]float64) []float64 {
	c := centers[r.Intn(len(centers))]
	v := make([]float64, len(c))
	for d := range v {
		v[d] = c[d] + r.NormFloat64()*6
	}
	return v
}
