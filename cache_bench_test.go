// Cache benchmarks: the sharded LRU's hit path and the singleflight
// loader under stampedes. The hit-path rail reports hit_rate next to
// ns/op (`benchjson compare` prints both columns), so a change that
// loses the working set shows even when lookups get cheaper.
//
//	make cache-bench            # just this file
//	make bench-baseline         # full tracked rails incl. these
package chiron_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"chiron/internal/model"
	"chiron/internal/parallel"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/workloads"
	"chiron/internal/wrap"
)

// benchCacheMix is the traffic-mix harness: one benchmark op is a full
// round of batched accesses — 4 workers each walking their own
// pregenerated 4096-key sequence concurrently — so even the rails'
// -benchtime=20x samples ~320k lookups and the reported hit_rate is a
// steady-state figure, not warm-up noise. The sequences are fixed
// across iterations (seeded rng), so every run sees the identical
// access stream.
func benchCacheMix(b *testing.B, capacity int, gen func(rng *rand.Rand) string) {
	const workers, perWorker = 4, 4096
	seqs := make([][]string, workers)
	for w := range seqs {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		seqs[w] = make([]string, perWorker)
		for i := range seqs[w] {
			seqs[w][i] = gen(rng)
		}
	}
	c := parallel.NewCache[string, int](capacity, 16, parallel.StringHash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seq []string) {
				defer wg.Done()
				for _, k := range seq {
					if _, ok := c.Get(k); !ok {
						c.Put(k, 0)
					}
				}
			}(seqs[w])
		}
		wg.Wait()
	}
	b.StopTimer()
	st := c.Stats()
	if lookups := st.Hits + st.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Hits)/float64(lookups), "hit_rate")
	}
}

// BenchmarkCacheHitHeavy is the steady-state regime every chiron cache
// spends most of its life in: a working set that fits (512 keys in a
// 4096-entry cache). Expected hit rate ~1.0; ns/op is the price of the
// LRU's promotion bookkeeping (relinking a ring node) on the hot path.
// The sub-benchmark keeps its /lru name so committed baselines match it.
func BenchmarkCacheHitHeavy(b *testing.B) {
	const keys, capacity = 512, 4096
	b.Run("lru", func(b *testing.B) {
		benchCacheMix(b, capacity, func(rng *rand.Rand) string {
			return fmt.Sprintf("fn-%03d", rng.Intn(keys))
		})
	})
}

// stampedeWork is the benchmark loader: ~20µs of CPU with scheduler
// yield points, modelling a real loader (a GIL simulation allocates and
// gets preempted) so redundant naive loads overlap even on one core.
func stampedeWork() int {
	s := 1
	for i := 0; i < 20; i++ {
		for j := 0; j < 1000; j++ {
			s = s*31 + j
		}
		runtime.Gosched()
	}
	return s
}

// BenchmarkCacheStampede prices the singleflight loader against the
// check-then-compute idiom it replaced. Each op is one stampede round:
// 16 goroutines race a cold key through a yielding ~20µs loader. The
// loads/op column is the story — singleflight runs the loader once per
// round while naive runs it up to 16 times — and ns/op shows the round
// completing faster because 15 goroutines wait instead of burning the
// CPU on redundant work.
func BenchmarkCacheStampede(b *testing.B) {
	const racers = 16
	round := func(b *testing.B, miss func(c *parallel.Cache[int, int], key int)) {
		c := parallel.NewCache[int, int](1<<20, 16, func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ready, wg sync.WaitGroup
			ready.Add(racers)
			start := make(chan struct{})
			for g := 0; g < racers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ready.Done()
					<-start
					miss(c, i)
				}()
			}
			ready.Wait()
			close(start)
			wg.Wait()
		}
		b.StopTimer()
		st := c.Stats()
		b.ReportMetric(float64(st.Misses-st.Shared)/float64(b.N), "loads/op")
	}
	b.Run("singleflight", func(b *testing.B) {
		round(b, func(c *parallel.Cache[int, int], key int) {
			c.GetOrCompute(key, stampedeWork)
		})
	})
	b.Run("naive", func(b *testing.B) {
		round(b, func(c *parallel.Cache[int, int], key int) {
			if _, ok := c.Get(key); !ok {
				c.Put(key, stampedeWork())
			}
		})
	})
}

// BenchmarkCachePredictStampede is the CI-gated stampede rail (see
// .github/workflows/ci.yml bench-smoke): one op is a 16-goroutine race
// on a cold prediction-cache key resolving through the real GIL
// simulation. The sims/op column must stay at 1.0 — a regression to
// per-goroutine simulation multiplies ns/op and trips the gate against
// BENCH_pr10.json.
func BenchmarkCachePredictStampede(b *testing.B) {
	const racers = 16
	w := workloads.FINRA(8)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := predict.New(model.Default(), set)
	names := make([]string, 0, 8)
	for _, f := range w.Stages[1].Functions {
		names = append(names, f.Name)
	}
	// One probe run outside the timed region so the first iteration pays
	// the same purge-then-stampede cost as the rest.
	if _, err := p.ExecThreadsCached(names, wrap.IsoNone); err != nil {
		b.Fatal(err)
	}
	before := predict.ExecCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict.PurgeExecCache()
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := p.ExecThreadsCachedHit(names, wrap.IsoNone); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	after := predict.ExecCacheStats()
	sims := (after.Misses - before.Misses) - (after.Shared - before.Shared)
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkCacheProfilerStampede is BenchmarkCachePredictStampede for
// the profiler memo: 16 goroutines race ProfileFunction on a purged
// spec; one trace-record/parse per round, one clone per caller.
func BenchmarkCacheProfilerStampede(b *testing.B) {
	const racers = 16
	spec := workloads.FINRA(1).Stages[0].Functions[0]
	opt := profiler.DefaultOptions()
	if _, err := profiler.ProfileFunction(spec, opt); err != nil {
		b.Fatal(err)
	}
	before := profiler.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiler.PurgeCache()
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := profiler.ProfileFunction(spec, opt); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	after := profiler.CacheStats()
	profiles := (after.Misses - before.Misses) - (after.Shared - before.Shared)
	b.ReportMetric(float64(profiles)/float64(b.N), "profiles/op")
}

// BenchmarkCacheGetOrComputeWarm is the overhead floor: GetOrCompute on
// an always-warm key, uncontended. This is what predict's hot path would
// pay if it skipped the Get+ComputeMissed pairing — any closure
// allocation would show in allocs/op, which is exactly why the pairing
// exists (compare TestCachedExecThreadsHitDoesNotAllocate).
func BenchmarkCacheGetOrComputeWarm(b *testing.B) {
	c := parallel.NewCache[string, int](64, 4, parallel.StringHash)
	c.Put("warm", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := c.GetOrCompute("warm", func() int { return 7 }); v != 7 {
			b.Fatal("bad value")
		}
	}
}
