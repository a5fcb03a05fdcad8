package parallel

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache[string, int](8, 1, StringHash)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("got %d, %v", v, ok)
	}
	c.Put("a", 2)
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("refresh lost: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[string, int](3, 1, StringHash)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // promote a: LRU order is now b, c, a
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestCacheCapacityBound(t *testing.T) {
	const capacity, shards = 64, 8
	c := NewCache[string, int](capacity, shards, StringHash)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", n, capacity)
	}
}

func TestCacheShardingSpreads(t *testing.T) {
	c := NewCache[string, int](1024, 16, StringHash)
	for i := 0; i < 1024; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	// Every shard should hold something: FNV-1a over realistic keys must
	// not funnel into a few shards.
	empty := 0
	for i := range c.shards {
		if c.shards[i].lru.len() == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d of 16 shards empty after 1024 inserts", empty)
	}
}

func TestCacheGetOrCompute(t *testing.T) {
	c := NewCache[string, int](8, 2, StringHash)
	calls := 0
	for i := 0; i < 3; i++ {
		v := c.GetOrCompute("k", func() int { calls++; return 7 })
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	}
	if calls != 1 {
		t.Fatalf("computed %d times", calls)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache[string, int](8, 2, StringHash)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("purged entry survived")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[string, int](256, 8, StringHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i%300)
				c.GetOrCompute(key, func() int { return i })
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 256 {
		t.Fatalf("capacity exceeded: %d", n)
	}
}
