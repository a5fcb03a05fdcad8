package parallel

// lfuPolicy is least-frequently-used replacement (samber/hot's lfu/
// layout): every entry carries a reference count, overflow evicts the
// entry with the lowest count, and recency (a monotone tick stamped on
// each touch) breaks frequency ties so the staler of two equally-used
// entries goes first. Entries sit in a hand-rolled value-slice min-heap
// keyed by (freq, tick); hits bump the count and sift the entry in place
// — no allocation, O(log n).
//
// LFU protects high-reuse entries against sustained medium-frequency
// traffic that would cycle an LRU, at the cost of aging slowly when the
// working set shifts (a once-hot key must be out-counted before it
// yields its slot).
type lfuPolicy[K comparable, V any] struct {
	cap  int
	m    map[K]*lfuEntry[K, V]
	heap []*lfuEntry[K, V]
	tick uint64
}

type lfuEntry[K comparable, V any] struct {
	key  K
	val  V
	freq uint64
	last uint64 // tick of the most recent touch (tie-break: older first)
	pos  int    // index in the heap
}

func newLFUPolicy[K comparable, V any](capacity int) *lfuPolicy[K, V] {
	p := &lfuPolicy[K, V]{cap: capacity}
	p.reset(capacity)
	return p
}

// reset empties the policy, presizing its storage for hint entries.
func (p *lfuPolicy[K, V]) reset(hint int) {
	p.m = make(map[K]*lfuEntry[K, V], hint)
	p.heap = make([]*lfuEntry[K, V], 0, hint)
	p.tick = 0
}

// less orders the heap: lowest frequency first, oldest touch first among
// equals — the eviction victim is always heap[0].
func (p *lfuPolicy[K, V]) less(a, b *lfuEntry[K, V]) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.last < b.last
}

func (p *lfuPolicy[K, V]) swap(i, j int) {
	h := p.heap
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (p *lfuPolicy[K, V]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(p.heap[i], p.heap[parent]) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *lfuPolicy[K, V]) siftDown(i int) {
	n := len(p.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && p.less(p.heap[l], p.heap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && p.less(p.heap[r], p.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		p.swap(i, least)
		i = least
	}
}

// touch bumps an entry's frequency and restores heap order; a higher
// count or fresher tick only ever pushes the entry down the heap.
func (p *lfuPolicy[K, V]) touch(e *lfuEntry[K, V]) {
	p.tick++
	e.freq++
	e.last = p.tick
	p.siftDown(e.pos)
}

func (p *lfuPolicy[K, V]) get(key K) (V, bool) {
	e, ok := p.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	p.touch(e)
	return e.val, true
}

func (p *lfuPolicy[K, V]) put(key K, v V) (evicted int) {
	if e, ok := p.m[key]; ok {
		e.val = v
		p.touch(e)
		return 0
	}
	if len(p.m) >= p.cap {
		victim := p.heap[0]
		last := len(p.heap) - 1
		p.swap(0, last)
		p.heap = p.heap[:last]
		if last > 0 {
			p.siftDown(0)
		}
		delete(p.m, victim.key)
		evicted = 1
	}
	p.tick++
	e := &lfuEntry[K, V]{key: key, val: v, freq: 1, last: p.tick, pos: len(p.heap)}
	p.heap = append(p.heap, e)
	p.m[key] = e
	p.siftUp(e.pos)
	return evicted
}

func (p *lfuPolicy[K, V]) len() int { return len(p.m) }

// purge drops the storage; see lruPolicy.purge.
func (p *lfuPolicy[K, V]) purge() { p.reset(0) }
