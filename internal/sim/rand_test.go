package sim

import (
	"math"
	"math/rand"
	"testing"
)

func seeded(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// checkStream draws n values from r and from math/rand seeded with seed,
// alternating Float64, Int63 and Uint64 so every exported draw is covered.
func checkStream(t *testing.T, r *Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if g, w := r.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
		case 1:
			if g, w := r.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		default:
			if g, w := r.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1,
		1<<31 - 3, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		-(1<<31 - 1), 89482311, 1 << 40,
		math.MinInt64, math.MaxInt64,
	}
	// 3,000 draws wrap the 607-word register several times, so words
	// rewritten by the feedback as well as first reads are compared.
	const draws = 3000
	for _, seed := range seeds {
		checkStream(t, seeded(seed), seed, draws)
	}

	// Re-seeding partway through must forget every word already derived.
	r := seeded(7)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	for _, seed := range seeds {
		r.Seed(seed)
		checkStream(t, r, seed, draws)
		r.Seed(seed)
		checkStream(t, r, seed, 50)
	}
}

// FuzzRandMatchesMathRand compares n draws of Rand against math/rand for
// arbitrary seeds.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(1<<31-1), uint16(10))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkStream(t, seeded(seed), seed, int(n))
	})
}

var randSink int64

// BenchmarkRandSeed compares reseeding math/rand's source with reseeding
// Rand, each followed by one draw so the reseed cannot be optimised away;
// both yield the same stream.
func BenchmarkRandSeed(b *testing.B) {
	b.Run("MathRand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for n := 0; n < b.N; n++ {
			r.Seed(int64(n))
			randSink += r.Int63()
		}
	})

	b.Run("SimRand", func(b *testing.B) {
		r := seeded(1)
		for n := 0; n < b.N; n++ {
			r.Seed(int64(n))
			randSink += r.Int63()
		}
	})
}
