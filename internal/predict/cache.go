package predict

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"chiron/internal/obs"
	"chiron/internal/parallel"
	"chiron/internal/wrap"
)

// execKey identifies one Algorithm-1 prediction: a process group (ordered
// function names, hashed), under one isolation mechanism, for one predictor
// content fingerprint. It is a fixed-size comparable struct so the hot-path
// lookup builds the key on the stack with zero heap allocations — no
// strings.Builder, no joined name string.
//
// The group is carried as two independent 64-bit hash streams over the
// name bytes (separator \x1f between names, which dag validation keeps out
// of function names) plus the name count; a collision requires two
// different ordered name lists to collide in 128 hash bits simultaneously,
// which is vanishingly unlikely and, per the cache contract, could only
// trade wall-clock time — the fingerprint and isolation fields are exact.
type execKey struct {
	fp  uint64
	iso wrap.IsolationKind
	n   uint32
	h1  uint64 // FNV-1a stream over names
	h2  uint64 // FNV-1 stream (xor/multiply order swapped) over names
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// execKeyOf builds the cache key for one process group under one isolation
// mechanism, allocation-free.
func (p *Predictor) execKeyOf(names []string, iso wrap.IsolationKind) execKey {
	h1, h2 := fnvOffset, fnvOffset
	for i, name := range names {
		if i > 0 {
			h1 ^= 0x1f
			h1 *= fnvPrime
			h2 *= fnvPrime
			h2 ^= 0x1f
		}
		for j := 0; j < len(name); j++ {
			c := uint64(name[j])
			h1 ^= c
			h1 *= fnvPrime
			h2 *= fnvPrime
			h2 ^= c
		}
	}
	return execKey{fp: p.fingerprint(), iso: iso, n: uint32(len(names)), h1: h1, h2: h2}
}

// execKeyHash selects the cache shard for a key; it only needs to spread.
func execKeyHash(k execKey) uint64 {
	h := k.h1 ^ (k.h2 * fnvPrime) ^ (k.fp * 0x9e3779b97f4a7c15)
	for i := 0; i < len(k.iso); i++ {
		h ^= uint64(k.iso[i])
		h *= fnvPrime
	}
	h += uint64(k.n)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// execCache is the process-wide prediction cache: Algorithm-1 group
// predictions keyed by (constants, profile contents, isolation, group).
// Keys are content fingerprints, not planner identities, so every PGP
// planner, adapt re-plan and experiment in the process shares one cache —
// a group priced once is never simulated again, no matter which component
// asks. Entries are pure functions of their key, so cache state can change
// wall-clock time but never results.
// Counters publish in obs.Default as chiron_predict_cache_*.
var execCache = parallel.NewCacheMetrics[execKey, time.Duration](1<<15, 16, execKeyHash, obs.Default, "chiron_predict_cache")

// ExecCacheStats exposes the shared cache's counters (benchmarks track the
// hit rate across re-plans; Shared counts concurrent misses deduplicated
// by the singleflight loader, so Misses - Shared is the number of GIL
// simulations actually run).
func ExecCacheStats() parallel.CacheStats { return execCache.Stats() }

// PurgeExecCache empties the shared cache (tests that measure cold-path
// behaviour).
func PurgeExecCache() { execCache.Purge() }

// fingerprint returns the predictor's content fingerprint: a hash of the
// calibrated constants and every profile's full content. Two predictors
// built from identical calibrations and profile sets — e.g. an adapt
// controller re-profiling an unchanged workload — produce the same
// fingerprint and therefore share cache entries. Computed once per
// Predictor (it may allocate); per-lookup keys never re-hash it.
func (p *Predictor) fingerprint() uint64 {
	p.fpOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", p.Const)
		names := make([]string, 0, len(p.Profiles))
		for name := range p.Profiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			prof := p.Profiles[name]
			fmt.Fprintf(h, "|%s:%d:%v:%g:%d", name, prof.Solo, prof.Runtime, prof.MemMB, prof.OutputBytes)
			for _, per := range prof.Periods {
				fmt.Fprintf(h, ";%d,%d,%d", per.Start, per.End, per.Kind)
			}
			for _, f := range prof.Files {
				fmt.Fprintf(h, ";f=%s", f)
			}
		}
		p.fp = h.Sum64()
	})
	return p.fp
}

// ExecThreadsCached is ExecThreads through the process-wide prediction
// cache. PGP's candidate search and adapt's re-plans call this on the hot
// path; identical groups (same profiles, same isolation) are simulated
// once per process and then served from the sharded LRU.
func (p *Predictor) ExecThreadsCached(names []string, iso wrap.IsolationKind) (time.Duration, error) {
	d, _, err := p.ExecThreadsCachedHit(names, iso)
	return d, err
}

// ExecThreadsCachedHit is ExecThreadsCached plus whether the prediction
// was served from the cache, for callers that trace lookup outcomes
// (PGP emits a cache-hit instant per served candidate). The key is built
// once; a steady-state hit performs zero heap allocations.
//
// Misses go through the cache's singleflight loader: when PGP's parallel
// candidate fan-out or a burst of adapt re-plans race on one uncached
// group, exactly one goroutine runs the GIL simulation and the rest
// block on its in-flight entry and share the result (hit=true — they
// did not simulate). The loader closure is only built after the
// zero-alloc hit check fails, so the hot path stays allocation-free.
func (p *Predictor) ExecThreadsCachedHit(names []string, iso wrap.IsolationKind) (time.Duration, bool, error) {
	key := p.execKeyOf(names, iso)
	if d, ok := execCache.Get(key); ok {
		return d, true, nil
	}
	d, computed, err := execCache.ComputeMissed(key, func() (time.Duration, error) {
		return p.ExecThreads(names, iso)
	})
	if err != nil {
		return 0, false, err
	}
	return d, !computed, nil
}
