package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Open-loop load: arrivals follow a seeded Poisson schedule fixed before
// the phase starts. Senders are a fixed set (no goroutine per arrival).
// A request whose sender was still busy with an earlier one when it fell
// due is timed from its due time, so a stall is charged to every
// request queued behind it. A request whose sender was idle is timed
// from when it was sent: the sender's wake-up after its sleep comes late
// by the Go runtime's timer granularity (often a millisecond on a small
// virtual machine), and that lateness belongs to the generator, not to
// the system it drives. It is reported on its own as generator lag.

// parts is the server-reported wall-clock split of one request.
type parts struct {
	queue, cold, exec time.Duration
}

func (p parts) total() time.Duration { return p.queue + p.cold + p.exec }

// sample is one timed operation, offsets relative to the phase start.
// from is when its latency starts: due if the system kept its sender
// busy past due, sent otherwise.
type sample struct {
	due, sent, done time.Duration
	from            time.Duration
	kind            uint8
	sender          uint8
	ok              bool
	// expected marks an operation whose refusal is the correct outcome
	// (an already-expired deadline, an unknown name).
	expected bool
	parts    parts
	// hStart/hEnd bound the server-side handler (traced HTTP only).
	hStart, hEnd time.Duration
	// wrote is when the request had been written (traced HTTP, UDP);
	// firstByte when the reply's first byte arrived (traced HTTP).
	wrote, firstByte time.Duration
}

func (s *sample) latency() time.Duration { return s.done - s.from }

// lag is how late an idle sender woke for this request (0 if the
// request waited for a busy sender instead).
func (s *sample) lag() time.Duration {
	if s.from == s.due {
		return 0
	}
	return s.sent - s.due
}

// poisson returns arrival offsets at rate per second over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// arrivals holds one phase's schedule and the arrays its operations
// fill. The arrays hold no pointers and live in memory mapped outside
// the Go heap, allocated before the phase's runtime watch starts: on the
// heap they would count in heap_p90_mb and raise the collector's heap
// goal, which lets the program's garbage grow with the benchmark's
// bookkeeping.
type arrivals struct {
	due []time.Duration
	ss  []sample
	ids []uint64
	// extra is the size of further per-arrival inputs a workload keeps
	// on the heap (churn-mix's operation schedule, which holds strings);
	// heap_p90_mb leaves it out.
	extra int
	unmap []func()
}

func newArrivals(due []time.Duration) *arrivals {
	a := &arrivals{}
	a.due = offHeap[time.Duration](a, len(due))
	copy(a.due, due)
	a.ss = offHeap[sample](a, len(due))
	a.ids = offHeap[uint64](a, len(due))
	return a
}

// free unmaps the arrays; a must not be used after.
func (a *arrivals) free() {
	for _, f := range a.unmap {
		f()
	}
	a.unmap = nil
}

// offHeap returns n zeroed Ts in anonymous memory that the Go heap does
// not hold, to be unmapped by a.free. T must hold no pointers. Where
// mapping fails it falls back to the heap.
func offHeap[T any](a *arrivals, n int) []T {
	size := n * int(unsafe.Sizeof(*new(T)))
	if size == 0 {
		return make([]T, n)
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n)
	}
	a.unmap = append(a.unmap, func() { _ = syscall.Munmap(b) })
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// sleepUntil sleeps until the deadline.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// driveSync runs a phase with n blocking senders. do performs operation
// i and fills its outcome; driveSync stamps due, sent and done into
// a.ss, in arrival order. It returns the phase start.
func driveSync(a *arrivals, n int, do func(i int, s *sample)) time.Time {
	due, out := a.due, a.ss
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				s := &out[i]
				s.due = due[i]
				s.sender = uint8(w)
				if time.Since(start) >= s.due {
					s.sent = time.Since(start)
					s.from = s.due
				} else {
					sleepUntil(start.Add(s.due))
					s.sent = time.Since(start)
					s.from = s.sent
				}
				do(i, s)
				s.done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return start
}

// phaseStats summarizes one phase's samples of the latency-bearing kind.
type phaseStats struct {
	n, failed int
	lat       []float64 // ms, arrival order, ok samples only
	idx       []int     // index into the phase's samples of each lat
	goodAt    []int64   // completions within the limit (UnixNano)
	lagP99Ms  float64
}

// summarize computes a phase's latency list, completions within the
// limit, failures and lag. Only samples with kind == k count; expected
// refusals count neither as latency nor as failures.
func summarize(ss []sample, start time.Time, k uint8, limitMs float64) phaseStats {
	var st phaseStats
	var lags []float64
	for i := range ss {
		s := &ss[i]
		if s.kind != k || s.expected {
			continue
		}
		st.n++
		lags = append(lags, ms(s.lag()))
		if !s.ok {
			st.failed++
			continue
		}
		l := ms(s.latency())
		if limitMs <= 0 || l <= limitMs {
			st.goodAt = append(st.goodAt, start.Add(s.done).UnixNano())
		}
		st.lat = append(st.lat, l)
		st.idx = append(st.idx, i)
	}
	st.lagP99Ms = quantile(lags, 0.99)
	return st
}

// closedStats summarizes a closed-loop saturation phase: requests
// sent and completed, ids, and when each completion within the latency
// limit arrived (UnixNano), so interference can be discounted.
type closedStats struct {
	n, ok      int
	ids        []uint64
	goodAt     []int64
	start, end time.Time
}

// goodputWindow is the window over which closed-loop goodput is counted
// before the median over windows is taken.
const goodputWindow = 250 * time.Millisecond

// closedLoop runs n senders closed loop for dur: each sends its next
// request as soon as its last completes, so the phase runs at the
// system's capacity. do performs one request, sets s.ok and returns the
// invocation id. good counts completions within limit.
func closedLoop(dur time.Duration, n int, limit time.Duration, do func(s *sample) uint64) closedStats {
	per := make([]closedStats, n)
	begin := time.Now()
	end := begin.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(st *closedStats) {
			defer wg.Done()
			for time.Now().Before(end) {
				var s sample
				t0 := time.Now()
				id := do(&s)
				st.n++
				if !s.ok {
					continue
				}
				st.ok++
				st.ids = append(st.ids, id)
				if now := time.Now(); now.Sub(t0) <= limit {
					st.goodAt = append(st.goodAt, now.UnixNano())
				}
			}
		}(&per[w])
	}
	wg.Wait()
	all := closedStats{start: begin, end: time.Now()}
	for _, st := range per {
		all.n, all.ok = all.n+st.n, all.ok+st.ok
		all.ids = append(all.ids, st.ids...)
		all.goodAt = append(all.goodAt, st.goodAt...)
	}
	return all
}
