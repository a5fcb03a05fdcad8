package parallel

// lruPolicy is one shard's least-recently-used replacement: a map into an
// intrusive doubly-linked list ordered most- to least-recently used.
// Hits relink in place (no allocation); overflow evicts the list tail.
// It is not thread-safe: the owning shard's mutex serializes every call.
type lruPolicy[K comparable, V any] struct {
	cap int
	m   map[K]*lruEntry[K, V]
	// head.next is the MRU entry; head.prev the LRU (ring with sentinel).
	head lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// init sets the capacity and empties the list. The sentinel ring points
// into p itself, so p must not be copied after init.
func (p *lruPolicy[K, V]) init(capacity int) {
	p.cap = capacity
	p.reset(capacity)
}

// reset empties the policy, presizing its storage for hint entries.
func (p *lruPolicy[K, V]) reset(hint int) {
	p.m = make(map[K]*lruEntry[K, V], hint)
	p.head.prev = &p.head
	p.head.next = &p.head
}

func (p *lruPolicy[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (p *lruPolicy[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = &p.head
	e.next = p.head.next
	e.next.prev = e
	p.head.next = e
}

// get returns the value and promotes the entry to most recently used.
func (p *lruPolicy[K, V]) get(key K) (V, bool) {
	e, ok := p.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	p.unlink(e)
	p.pushFront(e)
	return e.val, true
}

// put inserts or refreshes an entry, reporting how many entries (0 or 1)
// it evicted to make room.
func (p *lruPolicy[K, V]) put(key K, v V) (evicted int) {
	if e, ok := p.m[key]; ok {
		e.val = v
		p.unlink(e)
		p.pushFront(e)
		return 0
	}
	if len(p.m) >= p.cap {
		lru := p.head.prev
		p.unlink(lru)
		delete(p.m, lru.key)
		evicted = 1
	}
	e := &lruEntry[K, V]{key: key, val: v}
	p.m[key] = e
	p.pushFront(e)
	return evicted
}

func (p *lruPolicy[K, V]) len() int { return len(p.m) }

// purge drops the storage instead of keeping it presized: a purged cache
// refills at its own pace, and its old maps can be collected.
func (p *lruPolicy[K, V]) purge() { p.reset(0) }
