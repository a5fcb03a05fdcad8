package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// medianRate splits [start, end) into windows of length win and
// returns the median over windows of events (UnixNano instants) per
// second: a stall that the host imposes on part of the phase moves a
// few windows, not the reported rate.
func medianRate(at []int64, start, end time.Time, win time.Duration) float64 {
	n := int(end.Sub(start) / win)
	if n < 1 {
		return share(float64(len(at)), end.Sub(start).Seconds())
	}
	counts := make([]float64, n)
	for _, t := range at {
		if i := int(time.Duration(t-start.UnixNano()) / win); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts) / win.Seconds()
}

// windowedQuantile splits xs (in arrival order) into consecutive
// windows of at least minPerWindow samples (at most 31), takes the
// q-quantile of each and returns their median: one burst of
// interference from outside the process moves one window, not the
// reported value. With fewer samples than two windows it is the plain
// quantile.
func windowedQuantile(xs []float64, q float64, minPerWindow int) float64 {
	n := len(xs) / minPerWindow
	if n < 2 {
		return quantile(xs, q)
	}
	if n > 31 {
		n = 31
	}
	per := make([]float64, n)
	for w := 0; w < n; w++ {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return median(per)
}

// mb is a mebibyte, the unit of the heap metrics.
const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeWatch samples the process and its machine over a timed phase:
// the Go heap in use by objects (polled every 5 ms), GC CPU share and
// GC pause p99
// (deltas of the cumulative runtime counters between start and stop),
// process CPU time and the host's steal time.
type runtimeWatch struct {
	stop  chan struct{}
	done  chan struct{}
	began time.Time

	cpu0, steal0 time.Duration

	mu    sync.Mutex
	heaps []float64 // polled heap in use, bytes

	start []metrics.Sample
}

var rtNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// watchRuntime starts a watch; finish ends it. It first runs a full
// collection, so every watched phase starts from a collected heap rather
// than from whatever garbage set-up or an earlier phase left.
func watchRuntime() *runtimeWatch {
	runtime.GC()
	w := &runtimeWatch{stop: make(chan struct{}), done: make(chan struct{}), began: time.Now(), start: readRuntime()}
	w.cpu0, w.steal0 = processCPU(), hostSteal()
	w.heaps = []float64{float64(w.start[0].Value.Uint64())}
	go func() {
		defer close(w.done)
		heap := []metrics.Sample{{Name: rtNames[0]}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				metrics.Read(heap)
				w.mu.Lock()
				w.heaps = append(w.heaps, float64(heap[0].Value.Uint64()))
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// runtimeStats is what a watch measured.
type runtimeStats struct {
	// HeapP90MB is the 90th percentile of the polled heap: near its peak,
	// without the peak's dependence on when the collector ran.
	HeapP90MB    float64
	GCCPUShare   float64
	GCPauseP99Us float64
	// CPU is the process's user+system CPU time over the phase; Steal is
	// the time the host withheld from this machine's CPUs meanwhile;
	// Wall is the phase's length.
	CPU, Steal, Wall time.Duration
}

// stealShare is the share of the machine's CPU time the host withheld.
func (st runtimeStats) stealShare() float64 {
	return share(st.Steal.Seconds(), st.Wall.Seconds()*float64(runtime.NumCPU()))
}

func (w *runtimeWatch) finish() runtimeStats {
	close(w.stop)
	<-w.done
	end := readRuntime()
	w.mu.Lock()
	heaps := append(w.heaps, float64(end[0].Value.Uint64()))
	w.mu.Unlock()
	st := runtimeStats{
		HeapP90MB: quantile(heaps, 0.9) / mb,
		CPU:       processCPU() - w.cpu0, Steal: hostSteal() - w.steal0,
	}
	st.Wall = time.Since(w.began)
	st.GCCPUShare = share(end[1].Value.Float64()-w.start[1].Value.Float64(),
		end[2].Value.Float64()-w.start[2].Value.Float64())
	h0, h1 := w.start[3].Value.Float64Histogram(), end[3].Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		delta[i] = h1.Counts[i] - h0.Counts[i]
		total += delta[i]
	}
	if total > 0 {
		target := uint64(math.Ceil(0.99 * float64(total)))
		var acc uint64
		for i, c := range delta {
			acc += c
			if acc >= target {
				// Buckets[i+1] is the bucket's upper bound; the last may be +Inf.
				ub := h1.Buckets[i+1]
				if math.IsInf(ub, 1) {
					ub = h1.Buckets[i]
				}
				st.GCPauseP99Us = ub * 1e6
				break
			}
		}
	}
	return st
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the steal time summed over this machine's CPUs
// (/proc/stat, Linux only; 0 elsewhere), assuming 100 ticks a second.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
