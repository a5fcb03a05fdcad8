package parallel

// twoQPolicy is the 2Q replacement algorithm (Johnson & Shasha, VLDB'94;
// samber/hot's 2q/ layout): a small FIFO probation queue A1in admits
// every new key, keys aged out of A1in leave only a ghost (key, no
// value) in A1out, and a key re-referenced while ghosted is promoted
// into the main LRU Am. One-shot scan keys — a junk-name flood, a sweep
// of never-repeated candidate groups — churn through A1in and the ghost
// queue without ever displacing the hot working set resident in Am.
//
// Live entries (A1in + Am) never exceed capacity; ghosts hold no value
// and are bounded separately at kout.
type twoQPolicy[K comparable, V any] struct {
	cap  int
	kin  int // A1in target size (cap/4, min 1)
	kout int // A1out ghost bound (cap/2, min 1)

	m map[K]*twoQEntry[K, V] // live: in A1in or Am

	amHead twoQEntry[K, V] // Am LRU ring: next = MRU, prev = LRU
	inHead twoQEntry[K, V] // A1in FIFO ring: next = newest, prev = oldest
	amLen  int
	inLen  int

	ghosts map[K]*twoQGhost[K]
	gHead  twoQGhost[K] // A1out FIFO ring: next = newest, prev = oldest
}

type twoQEntry[K comparable, V any] struct {
	key        K
	val        V
	inA1       bool // resident in A1in (else Am)
	prev, next *twoQEntry[K, V]
}

type twoQGhost[K comparable] struct {
	key        K
	prev, next *twoQGhost[K]
}

func newTwoQPolicy[K comparable, V any](capacity int) *twoQPolicy[K, V] {
	p := &twoQPolicy[K, V]{cap: capacity}
	p.kin = capacity / 4
	if p.kin < 1 {
		p.kin = 1
	}
	p.kout = capacity / 2
	if p.kout < 1 {
		p.kout = 1
	}
	p.reset(capacity)
	return p
}

// reset empties the policy, presizing its live map for hint entries and
// its ghost map for at most kout.
func (p *twoQPolicy[K, V]) reset(hint int) {
	p.m = make(map[K]*twoQEntry[K, V], hint)
	p.ghosts = make(map[K]*twoQGhost[K], min(hint, p.kout))
	p.amHead.prev, p.amHead.next = &p.amHead, &p.amHead
	p.inHead.prev, p.inHead.next = &p.inHead, &p.inHead
	p.gHead.prev, p.gHead.next = &p.gHead, &p.gHead
	p.amLen, p.inLen = 0, 0
}

func unlink2Q[K comparable, V any](e *twoQEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func pushFront2Q[K comparable, V any](head, e *twoQEntry[K, V]) {
	e.prev = head
	e.next = head.next
	e.next.prev = e
	head.next = e
}

func (p *twoQPolicy[K, V]) get(key K) (V, bool) {
	e, ok := p.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	if !e.inA1 {
		// Am hit: promote to MRU. A1in hits stay in FIFO order — the
		// probation queue measures "referenced again after admission",
		// not recency.
		unlink2Q(e)
		pushFront2Q(&p.amHead, e)
	}
	return e.val, true
}

func (p *twoQPolicy[K, V]) put(key K, v V) (evicted int) {
	if e, ok := p.m[key]; ok {
		e.val = v
		if !e.inA1 {
			unlink2Q(e)
			pushFront2Q(&p.amHead, e)
		}
		return 0
	}
	evicted = p.reclaim()
	e := &twoQEntry[K, V]{key: key, val: v}
	if g, ghosted := p.ghosts[key]; ghosted {
		// Re-referenced after aging out of A1in: this key has proven
		// reuse, admit it straight into the protected main queue.
		p.dropGhost(g)
		pushFront2Q(&p.amHead, e)
		p.amLen++
	} else {
		e.inA1 = true
		pushFront2Q(&p.inHead, e)
		p.inLen++
	}
	p.m[key] = e
	return evicted
}

// reclaim frees one live slot when the cache is full, per 2Q's
// "reclaimfor": age A1in's oldest entry into the ghost queue while A1in
// is over its target, otherwise evict Am's LRU.
func (p *twoQPolicy[K, V]) reclaim() (evicted int) {
	if p.amLen+p.inLen < p.cap {
		return 0
	}
	if p.inLen > p.kin || p.amLen == 0 {
		oldest := p.inHead.prev
		unlink2Q(oldest)
		p.inLen--
		delete(p.m, oldest.key)
		p.addGhost(oldest.key)
		return 1
	}
	lru := p.amHead.prev
	unlink2Q(lru)
	p.amLen--
	delete(p.m, lru.key)
	return 1
}

func (p *twoQPolicy[K, V]) addGhost(key K) {
	g := &twoQGhost[K]{key: key}
	g.prev = &p.gHead
	g.next = p.gHead.next
	g.next.prev = g
	p.gHead.next = g
	p.ghosts[key] = g
	if len(p.ghosts) > p.kout {
		p.dropGhost(p.gHead.prev)
	}
}

func (p *twoQPolicy[K, V]) dropGhost(g *twoQGhost[K]) {
	g.prev.next = g.next
	g.next.prev = g.prev
	delete(p.ghosts, g.key)
}

func (p *twoQPolicy[K, V]) len() int { return len(p.m) }

// purge drops the storage; see lruPolicy.purge.
func (p *twoQPolicy[K, V]) purge() { p.reset(0) }
