package parallel

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPolicyModelProperties drives the LRU with a long seeded random op
// sequence against a reference model, checking its invariants:
//
//   - bounded size: live entries never exceed capacity;
//   - hit correctness: a hit returns the exact value of the most recent
//     put for that key (no aliasing, no lost updates);
//   - no resurrection: a key that was never put never hits.
func TestPolicyModelProperties(t *testing.T) {
	const (
		capacity = 32
		keyspace = 96
		ops      = 20000
	)
	t.Run("lru", func(t *testing.T) {
		var p lruPolicy[int, int]
		p.init(capacity)
		rng := rand.New(rand.NewSource(42))
		latest := map[int]int{} // reference: last value put per key
		for i := 0; i < ops; i++ {
			k := rng.Intn(keyspace)
			if rng.Intn(2) == 0 {
				v := rng.Int()
				p.put(k, v)
				latest[k] = v
			} else if v, ok := p.get(k); ok {
				want, ever := latest[k]
				if !ever {
					t.Fatalf("op %d: key %d hit but was never put", i, k)
				}
				if v != want {
					t.Fatalf("op %d: key %d = %d, want %d", i, k, v, want)
				}
			}
			if n := p.len(); n > capacity {
				t.Fatalf("op %d: %d live entries exceed capacity %d", i, n, capacity)
			}
		}
		p.purge()
		if p.len() != 0 {
			t.Fatalf("purge left %d entries", p.len())
		}
		if _, ok := p.get(1); ok {
			t.Fatal("purged entry survived")
		}
	})
}

// refLRU is an executable specification of LRU built on a plain slice:
// most-recently-used first, evict the back.
type refLRU struct {
	cap  int
	keys []int
	vals map[int]int
}

func (r *refLRU) touch(k int) {
	for i, key := range r.keys {
		if key == k {
			copy(r.keys[1:i+1], r.keys[:i])
			r.keys[0] = k
			return
		}
	}
}

func (r *refLRU) get(k int) (int, bool) {
	v, ok := r.vals[k]
	if !ok {
		return 0, false
	}
	r.touch(k)
	return v, true
}

func (r *refLRU) put(k, v int) (evicted int) {
	if _, ok := r.vals[k]; ok {
		r.vals[k] = v
		r.touch(k)
		return 0
	}
	if len(r.keys) >= r.cap {
		victim := r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		delete(r.vals, victim)
		evicted = 1
	}
	r.keys = append([]int{k}, r.keys...)
	r.vals[k] = v
	return evicted
}

// TestLRUMatchesReferenceModel checks the LRU policy op-for-op against
// the executable specification: identical hits, misses, values and
// eviction counts over a long random sequence — full recency-order
// equivalence, not just invariants.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const capacity, keyspace, ops = 16, 48, 20000
	var p lruPolicy[int, int]
	p.init(capacity)
	ref := &refLRU{cap: capacity, vals: map[int]int{}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		k := rng.Intn(keyspace)
		if rng.Intn(2) == 0 {
			v := rng.Int()
			if got, want := p.put(k, v), ref.put(k, v); got != want {
				t.Fatalf("op %d: put(%d) evicted %d, reference %d", i, k, got, want)
			}
		} else {
			gv, gok := p.get(k)
			wv, wok := ref.get(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: get(%d) = %d,%v, reference %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if p.len() != len(ref.vals) {
			t.Fatalf("op %d: len %d, reference %d", i, p.len(), len(ref.vals))
		}
	}
}

// TestCachePolicyShellIntegration runs the full sharded shell (not a bare
// shard LRU): capacity bound across shards, hit correctness, purge, and
// evictions recorded once the key space outgrows the capacity.
func TestCachePolicyShellIntegration(t *testing.T) {
	const capacity = 64
	t.Run("lru", func(t *testing.T) {
		c := NewCache[string, int](capacity, 8, StringHash)
		for i := 0; i < 10*capacity; i++ {
			k := fmt.Sprintf("key-%d", i%(2*capacity))
			c.Put(k, i)
			if v, ok := c.Get(k); !ok || v != i {
				t.Fatalf("just-put key %q = %d, %v", k, v, ok)
			}
		}
		if n := c.Len(); n > capacity {
			t.Fatalf("cache grew to %d entries, capacity %d", n, capacity)
		}
		st := c.Stats()
		if st.Evictions == 0 {
			t.Fatal("no evictions recorded despite 2x-capacity keyspace")
		}
		c.Purge()
		if c.Len() != 0 {
			t.Fatalf("Len after purge = %d", c.Len())
		}
	})
}

// TestCachePolicyHitPathZeroAlloc pins the shell's promise: a warm Get is
// allocation-free (the LRU relinks its ring node in place).
func TestCachePolicyHitPathZeroAlloc(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := NewCache[string, int](64, 4, StringHash)
		c.Put("warm", 7)
		var v int
		if avg := testing.AllocsPerRun(200, func() {
			got, ok := c.Get("warm")
			if !ok {
				t.Fatal("warm key missed")
			}
			v = got
		}); avg > 0 {
			t.Fatalf("hit allocates %.1f allocs/run, want 0", avg)
		}
		if v != 7 {
			t.Fatalf("hit value = %d", v)
		}
	})
}

// FuzzCacheLRU holds the LRU to the executable specification op for op
// on arbitrary tapes: the first byte picks the capacity (1..48), then
// each byte pair is an op (low bit: put or get) and a key out of 32, so
// capacities both below and above the key space are exercised. Every op
// must agree on hit or miss, value, eviction count and length.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0x07, 0x01, 0x42, 0x11, 0x00})
	f.Add([]byte("put-get-put-get-scan-scan-scan"))
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		capacity := 1 + int(tape[0]%48)
		var p lruPolicy[int, int]
		p.init(capacity)
		ref := &refLRU{cap: capacity, vals: map[int]int{}}
		for i := 1; i+1 < len(tape); i += 2 {
			op, key := tape[i], int(tape[i+1]%32)
			if op&1 == 0 {
				if got, want := p.put(key, i), ref.put(key, i); got != want {
					t.Fatalf("op %d: put(%d) evicted %d, reference %d", i, key, got, want)
				}
			} else {
				gv, gok := p.get(key)
				wv, wok := ref.get(key)
				if gok != wok || gv != wv {
					t.Fatalf("op %d: get(%d) = %d,%v, reference %d,%v", i, key, gv, gok, wv, wok)
				}
			}
			if p.len() != len(ref.vals) {
				t.Fatalf("op %d: len %d, reference %d", i, p.len(), len(ref.vals))
			}
		}
	})
}
