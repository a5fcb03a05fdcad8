package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chiron/internal/obs"
)

// tracer records the traced run's spans. Every span is recorded here,
// in the benchmark, around a call it makes into a layer, or placed from
// the durations a reply reports; nothing is recorded inside the program.
// Spans of one request share its row (PID = track, TID = request slot).
type tracer struct {
	t     *obs.Trace
	epoch time.Time
}

// Track ids (Chrome trace "processes").
const (
	pidRequests = 1
	pidProbes   = 2
	pidPlans    = 3
)

func newTracer(epoch time.Time) *tracer {
	t := obs.NewTrace()
	t.NameProcess(pidRequests, "requests")
	t.NameProcess(pidProbes, "layer probes")
	t.NameProcess(pidPlans, "planner")
	return &tracer{t: t, epoch: epoch}
}

// span records [start, end) as offsets from the tracer's epoch.
func (t *tracer) span(pid, tid int, name, cat string, start, end time.Duration, args ...obs.Arg) {
	t.t.RecordSpan(obs.Span{PID: pid, TID: tid, Name: name, Cat: cat, Start: start, End: end, Args: args})
}

// at converts a wall instant into an epoch offset.
func (t *tracer) at(x time.Time) time.Duration { return x.Sub(t.epoch) }

// write saves the trace as Chrome trace JSON (loadable in Perfetto).
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.t.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// budget is a per-layer split of end-to-end latency. Each part is the
// mean, over the requests whose latency lies in the 45th to 55th
// percentile band, of one layer's self time, so the parts add up to
// lat_p50_ms; unattributed is what no span covers.
type budget struct {
	layers []string
	sums   map[string]float64
	total  float64
	n      int
}

func newBudget(layers ...string) *budget {
	return &budget{layers: layers, sums: map[string]float64{}}
}

// add folds one request: its latency and its layers' self times (us).
func (b *budget) add(latUs float64, selfUs map[string]float64) {
	b.n++
	b.total += latUs
	covered := 0.0
	for _, l := range b.layers {
		b.sums[l] += selfUs[l]
		covered += selfUs[l]
	}
	b.sums["unattributed"] += latUs - covered
}

// report sets budget.<layer>_us metrics and trace.unattributed_share.
func (b *budget) report(r *run) {
	for _, l := range append(append([]string(nil), b.layers...), "unattributed") {
		r.setLayer("budget."+l+"_us", "us", share(b.sums[l], float64(b.n)))
	}
	r.setLayer("trace.unattributed_share", "ratio", share(b.sums["unattributed"], b.total))
	r.notes["budget_requests"] = b.n
}

// p50Band returns the indices of xs whose values lie between the 45th
// and 55th percentiles.
func p50Band(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	lo, hi := len(idx)*45/100, len(idx)*55/100+1
	if hi > len(idx) {
		hi = len(idx)
	}
	return idx[lo:hi]
}

// timeProbe runs fn n times and returns each call's wall time.
func timeProbe(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// timeProbeBatch times batches of k calls and returns per-call ns; for
// sub-microsecond calls a single clock read would dominate.
func timeProbeBatch(batches, k int, fn func()) []float64 {
	out := make([]float64, batches)
	for i := range out {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			fn()
		}
		out[i] = float64(time.Since(t0)) / float64(k)
	}
	return out
}
