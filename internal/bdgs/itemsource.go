package bdgs

import "math/rand"

// itemSource is the Stable* generators' per-item source: its output is
// rand.NewSource(seed)'s bit for bit, but a register word is filled only
// when first read, so a reseed costs a bitmap clear instead of math/rand's
// 1 841 Lehmer steps (DESIGN.md §2). Word i is three consecutive Lehmer
// states from step 21+3i, XORed with math/rand's cooked constant for i.
type itemSource struct {
	tap, feed int
	x0        uint64 // the normalised seed: Lehmer state 0
	valid     [(srcLen + 63) / 64]uint64
	vec       [srcLen]int64
}

// math/rand's register length and tap, and its Lehmer seeding generator.
const (
	srcLen, srcTap = 607, 273
	lcgMod, lcgMul = 1<<31 - 1, 48271
)

var lcgJump, cooked = itemTables() // lcgMul^(21+3i) mod lcgMod; math/rand's constants

// itemRand returns a generator over an itemSource; Seed it before use.
func itemRand() *rand.Rand { return rand.New(new(itemSource)) }

func (s *itemSource) Seed(seed int64) {
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.x0 = 0, srcLen-srcTap, uint64(seed)
	s.valid = [len(s.valid)]uint64{}
}

func (s *itemSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *itemSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *itemSource) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.valid[i>>6]&bit == 0 {
		s.valid[i>>6] |= bit
		s.vec[i] = lcgWord(s.x0*lcgJump[i]%lcgMod) ^ cooked[i]
	}
	return s.vec[i]
}

// lcgWord packs Lehmer state x and its two successors into a register
// word, before the cooked constant.
func lcgWord(x uint64) int64 {
	u := x << 40
	x = x * lcgMul % lcgMod
	u ^= x << 20
	return int64(u ^ x*lcgMul%lcgMod)
}

// itemTables builds lcgJump and recovers the cooked constants from
// rand.NewSource(1)'s first srcLen outputs. Output n adds word
// srcLen−1−n (the tap) to the feed word; from n = srcTap on, the tap
// holds output n−srcTap. XORing out seed 1's Lehmer words, whose first
// states are lcgJump itself, leaves the constants.
func itemTables() (jump [srcLen]uint64, cooked [srcLen]int64) {
	for k, p := 0, uint64(1); k < 21+3*srcLen; k, p = k+1, p*lcgMul%lcgMod {
		if k >= 21 && (k-21)%3 == 0 {
			jump[(k-21)/3] = p
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [srcLen]int64
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	for n := srcLen - 1; n >= 0; n-- {
		feed := (2*srcLen - srcTap - 1 - n) % srcLen
		if n >= srcTap {
			cooked[feed] = out[n] - out[n-srcTap]
		} else {
			cooked[feed] = out[n] - cooked[srcLen-1-n]
		}
	}
	for i := range cooked {
		cooked[i] ^= lcgWord(jump[i])
	}
	return jump, cooked
}
