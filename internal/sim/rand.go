package sim

// Rand is the seeded jitter stream of the virtual-time substrates. It
// yields exactly the values of rand.New(rand.NewSource(seed)) — the same
// additive lagged-Fibonacci generator over the same 607-word register —
// so every table sampled from math/rand stays byte-identical. What differs
// is the cost of Seed: math/rand fills the whole register up front (1,841
// Park–Miller steps, ~14 µs), while a jittered simulation reads only a few
// dozen words before it is reseeded. Rand instead computes register word i
// the first time it is read, by jumping straight to its Park–Miller state
// with a precomputed power of the multiplier, so Seed is O(1).
//
// Rand implements math/rand.Source64. A Rand must be seeded before use and
// is not safe for concurrent use; hot paths embed or pool one and reseed it
// per simulation.
type Rand struct {
	tap, feed int
	seed      uint64 // normalised to [1, 2³¹−2]
	// valid marks the register words already derived from seed.
	valid [(rngLen + 63) / 64]uint64
	vec   [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// Park–Miller "minimal standard" generator math/rand seeds with:
	// x[n+1] = 48271·x[n] mod (2³¹−1).
	pmMod = 1<<31 - 1
	pmMul = 48271
)

// seedPow[i] = 48271^(21+3i) mod (2³¹−1): math/rand's Seed discards 20
// Park–Miller states and then draws three per register word, so word i
// is built from states 21+3i, 22+3i and 23+3i of the seed's sequence.
var seedPow [rngLen]uint64

func init() {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * pmMul % pmMod
	}
	const mul3 = pmMul * pmMul % pmMod * pmMul % pmMod
	for i := range seedPow {
		seedPow[i] = x
		x = x * mul3 % pmMod
	}
}

// Seed resets the stream to the one rand.NewSource(seed) produces. It
// normalises seed the way math/rand does (mod 2³¹−1, with 0 mapped to
// 89482311) and forgets the register; no word is computed here.
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
	r.valid = [len(r.valid)]uint64{}
}

// word returns register word i, deriving it from the seed on first read.
func (r *Rand) word(i int) int64 {
	if r.valid[i>>6]&(1<<(i&63)) == 0 {
		r.fill(i)
	}
	return r.vec[i]
}

func (r *Rand) fill(i int) {
	x := r.seed * seedPow[i] % pmMod
	u := int64(x) << 40
	x = x * pmMul % pmMod
	u ^= int64(x) << 20
	x = x * pmMul % pmMod
	u ^= int64(x)
	r.vec[i] = u ^ rngCooked[i]
	r.valid[i>>6] |= 1 << (i & 63)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Float64 returns a pseudo-random number in [0.0, 1.0), repeating
// (*rand.Rand).Float64's draw-and-retry so the value stream matches.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
