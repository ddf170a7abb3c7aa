package bdgs

import (
	"math/rand"
	"testing"
)

// TestItemSourceMatchesMathRand: the lazily seeded source must replay
// rand.NewSource bit for bit — across the seed normalisation edge cases
// (0, negatives, multiples of 2³¹−1) and far enough past 607 draws that
// both the feed and the tap index wrap around the register. One source
// is reseeded throughout, so a stale word surviving a reseed fails too.
func TestItemSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, 1, 89482311, 1<<31 - 1, 1 << 31, -1 << 40}
	r := rand.New(rand.NewSource(20260101))
	for i := 0; i < 32; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	var s itemSource
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for n := 0; n < 2500; n++ {
			if n%2 == 0 {
				if got, w := s.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, n, got, w)
				}
			} else if got, w := s.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, n, got, w)
			}
		}
	}
}
