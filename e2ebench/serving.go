package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"chiron/internal/dag"
	"chiron/internal/live"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/serve"
	"chiron/internal/workloads"
)

// setupRepeated builds the system `times` times, tearing down every
// build but the last, and reports as setup_s the median over builds of
// the process CPU time (user+system) a build takes. CPU time rather
// than wall time: work moved into set-up shows in it, while on a
// 2-vCPU Firecracker virtual machine sharing its host the wall time of
// a 20 ms set-up moved by 44% between two sets of runs as the host's
// steal changed. Wall times are kept in the notes. Each build starts from
// purged predict and profiler caches, so every one does the same work.
// Teardowns are checked for a clean drain and for goroutines returning
// to the baseline taken before the first.
func (r *run) setupRepeated(times int, build func() (teardown func() error, err error)) (func() error, error) {
	base := runtime.NumGoroutine()
	var cpu, wall []float64
	var teardown func() error
	for i := 0; i < times; i++ {
		predict.PurgeExecCache()
		profiler.PurgeCache()
		t0, c0 := time.Now(), processCPU()
		td, err := build()
		if err != nil {
			return nil, err
		}
		cpu = append(cpu, (processCPU() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		if i < times-1 {
			r.checkTeardown(td, base)
			continue
		}
		teardown = func() error { r.checkTeardown(td, base); return nil }
	}
	r.setE2E("setup_s", "s", median(cpu))
	r.notes["setup_cpu_s"] = cpu
	r.notes["setup_wall_s"] = wall
	return teardown, nil
}

// checkTeardown runs a teardown and checks the drain and goroutines.
func (r *run) checkTeardown(td func() error, base int) {
	err := td()
	r.check("drain_clean", err == nil, "shutdown: %v", err)
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	r.check("goroutines_return", n <= base, "%d goroutines after shutdown, baseline %d", n, base)
}

// shutdownApp drains an app with a bounded wait.
func shutdownApp(app *serve.App) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return app.Shutdown(ctx)
}

// builtin returns a builtin workload by name.
func builtin(name string) (*dag.Workflow, error) {
	for _, e := range append(workloads.Suite(), workloads.Extras()...) {
		if e.Name == name {
			return e.Workflow, nil
		}
	}
	return nil, fmt.Errorf("unknown builtin workflow %q", name)
}

// counters scrapes a registry through its Prometheus text exposition
// (the same bytes /metrics serves) and sums samples by name.
func counters(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		return nil, err
	}
	fams, err := obs.ParseProm(&buf)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics exposition: %w", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// delta returns after-before for a counter name.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// steadyGuard checks that nothing the steady-state workloads must keep
// still moved after warm-up: re-plans, admission rejections, cold boots
// and the active plan version.
func (r *run) steadyGuard(before, after map[string]float64, v0, v1 int64) {
	var moved []string
	for _, c := range []string{
		"chiron_serve_replans_total", "chiron_serve_replans_suppressed_total",
		"chiron_serve_rollbacks_total", "chiron_serve_rejected_total",
		"chiron_serve_coldstarts_total",
	} {
		if d := delta(before, after, c); d != 0 {
			moved = append(moved, fmt.Sprintf("%s +%g", c, d))
		}
	}
	if v0 != v1 {
		moved = append(moved, fmt.Sprintf("plan version %d -> %d", v0, v1))
	}
	r.check("steady_state", len(moved) == 0, "moved after warm-up: %s", strings.Join(moved, ", "))
}

// counterLayers reports the per-layer counts and ratios the serving
// plane exports, as deltas over the timed phases.
func (r *run) counterLayers(before, after map[string]float64) {
	d := func(n string) float64 { return delta(before, after, n) }
	r.setLayer("serve.admission.rejected", "count", d("chiron_serve_rejected_total"))
	r.setLayer("serve.admission.deadline_shed", "count", d("chiron_serve_deadline_shed_total"))
	r.setLayer("serve.admission.deadline_expired", "count", d("chiron_serve_deadline_expired_total"))
	r.setLayer("serve.pool.cold_boots", "count", d("chiron_serve_coldstarts_total"))
	r.setLayer("serve.pool.cold_cancelled", "count", d("chiron_serve_cold_cancelled_total"))
	r.setLayer("serve.pool.warm_share", "ratio", share(d("chiron_serve_warmhits_total"),
		d("chiron_serve_warmhits_total")+d("chiron_serve_coldstarts_total")))
	r.setLayer("serve.hedge.armed_share", "ratio", share(d("chiron_serve_hedges_total"), d("chiron_serve_requests_total")))
	r.setLayer("serve.hedge.win_share", "ratio", share(d("chiron_serve_hedge_wins_total"), d("chiron_serve_hedges_total")))
	r.setLayer("obs.flight.retained_share", "ratio", share(d("chiron_flight_retained_total"), d("chiron_flight_finished_total")))
	r.setLayer("obs.flight.throttled", "count", d("chiron_flight_throttled_total"))
	r.setLayer("udp.filtered", "count", d("chiron_udp_filtered_total"))
	r.setLayer("udp.shed", "count", d("chiron_udp_shed_total"))
	r.setLayer("udp.errors", "count", d("chiron_udp_errors_total"))
	r.setLayer("adapt.replans", "count", d("chiron_serve_replans_total"))
	r.setLayer("adapt.replans_suppressed", "count", d("chiron_serve_replans_suppressed_total"))
	r.setLayer("adapt.rollbacks", "count", d("chiron_serve_rollbacks_total"))
}

// accountingChecks are the identities every serving workload checks at
// the end: the app's request counter equals the completions the client
// counted, and every hedge either won or was wasted.
func (r *run) accountingChecks(before, after map[string]float64, completions int64) {
	served := delta(before, after, "chiron_serve_requests_total")
	r.check("requests_total_matches", served == float64(completions),
		"chiron_serve_requests_total moved %g, client counted %d completions", served, completions)
	h, w, x := delta(before, after, "chiron_serve_hedges_total"),
		delta(before, after, "chiron_serve_hedge_wins_total"),
		delta(before, after, "chiron_serve_hedge_wasted_total")
	r.check("hedges_accounted", h == w+x, "hedges %g != wins %g + wasted %g", h, w, x)
}

// servingProbes times single calls into the serving layers on the live
// app, after the traced load: admission, the live executor on the
// active plan, the flight recorder and the /metrics exposition.
func (r *run) servingProbes(app *serve.App, name string, scale float64) error {
	tr := r.tr
	p0 := time.Now()
	ctx := context.Background()
	h := serve.HashName(name)
	var admitErr error
	admit := timeProbeBatch(200, 50, func() {
		ad, err := app.AdmitHash(ctx, h)
		if err != nil {
			admitErr = err
			return
		}
		ad.Release()
	})
	if admitErr != nil {
		return fmt.Errorf("admission probe: %w", admitErr)
	}
	r.setLayer("serve.admit_ns", "ns", median(admit))
	tr.span(pidProbes, 1, "serve.AdmitHash+Release x10000", "probe", tr.at(p0), tr.at(time.Now()))

	info, err := app.ActivePlan(name)
	if err != nil {
		return err
	}
	beh, err := builtin(name)
	if err != nil {
		return err
	}
	const liveRuns = 100
	var ms0, ms1 runtime.MemStats
	var runErr error
	runtime.ReadMemStats(&ms0)
	p1 := time.Now()
	runs := timeProbe(liveRuns, func() {
		if _, err := live.RunCtx(ctx, beh, info.Plan, live.Options{Const: model.Default(), Scale: scale}); err != nil {
			runErr = err
		}
	})
	p2 := time.Now()
	runtime.ReadMemStats(&ms1)
	if runErr != nil {
		return fmt.Errorf("live probe: %w", runErr)
	}
	tr.span(pidProbes, 2, fmt.Sprintf("live.RunCtx x%d", liveRuns), "probe", tr.at(p1), tr.at(p2))
	r.setLayer("live.run_p50_us", "us", median(runs)/1e3)
	r.setLayer("live.run_p99_us", "us", quantile(runs, 0.99)/1e3)
	r.setLayer("live.overhead_us", "us", median(runs)/1e3-us(time.Duration(float64(info.Predicted)*scale)))
	r.setLayer("live.allocs_per_run", "count", float64(ms1.Mallocs-ms0.Mallocs)/liveRuns)

	fl := flight.New(flight.Options{Reg: obs.NewRegistry()})
	p3 := time.Now()
	fin := timeProbeBatch(200, 50, func() {
		fl.Finish(fl.Acquire(), flight.Info{Workflow: name, Latency: time.Millisecond})
	})
	r.setLayer("obs.flight.finish_ns", "ns", median(fin))
	tr.span(pidProbes, 3, "flight.Acquire+Finish x10000", "probe", tr.at(p3), tr.at(time.Now()))

	p4 := time.Now()
	scrapes := timeProbe(20, func() { _ = app.Registry().WriteProm(io.Discard) })
	r.setLayer("obs.scrape_ms", "ms", median(scrapes)/1e6)
	tr.span(pidProbes, 4, "Registry.WriteProm x20", "probe", tr.at(p4), tr.at(time.Now()))
	return nil
}

// runtimeLayers reports the Go runtime's share of a timed phase.
func (r *run) runtimeLayers(st runtimeStats) {
	r.setLayer("go.gc_cpu_share", "ratio", st.GCCPUShare)
	r.setLayer("go.gc_pause_p99_us", "us", st.GCPauseP99Us)
}

// latency reports lat_p10_ms, lat_p50_ms and lat_p99_ms from an
// untraced phase. The p99 is the median of per-window p99s over windows
// of at least 1000 samples, so each window leaves at least ten samples
// beyond its p99.
func (r *run) latency(st phaseStats) {
	r.setLayer("lat_p10_ms", "ms", quantile(st.lat, 0.1))
	r.setLayer("lat_p50_ms", "ms", median(st.lat))
	r.setLayer("lat_p99_ms", "ms", windowedQuantile(st.lat, 0.99, 1000))
	r.notes["lat_samples"] = len(st.lat)
	r.notes["lat_samples_beyond_p99"] = len(st.lat) - int(0.99*float64(len(st.lat)))
	r.notes["gen_lag_p99_ms"] = st.lagP99Ms
}

// servingRun is the part of a serving workload that does not depend on
// the ingress: counter snapshots, the fixed-rate and saturation phases,
// the traced phase with its layer budget and probes, and the checks at
// the end.
type servingRun struct {
	r       *run
	app     *serve.App
	name    string
	ingress string // span name of the ingress layer
	steady  bool   // the steady-state guard applies
	// prepare, when set, draws a workload's further per-arrival inputs
	// before the runtime watch starts and adds their size to a.extra.
	prepare func(a *arrivals)

	before map[string]float64
	v0     int64

	// fixedCPU is the process CPU time of the untraced fixed-rate phase.
	fixedCPU time.Duration

	mu          sync.Mutex
	ids         []uint64
	completions int64
	wrongN      int64
	firstWrong  error
}

func newServingRun(r *run, app *serve.App, name, ingress string) (*servingRun, error) {
	sv := &servingRun{r: r, app: app, name: name, ingress: ingress, steady: true}
	var err error
	if sv.before, err = counters(app.Registry()); err != nil {
		return nil, err
	}
	info, err := app.ActivePlan(name)
	if err != nil {
		return nil, err
	}
	sv.v0 = info.Version
	return sv, nil
}

// wrong records a reply that failed a correctness check.
func (sv *servingRun) wrong(err error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.wrongN++
	if sv.firstWrong == nil {
		sv.firstWrong = err
	}
}

// collect records a phase's invocation ids and completions.
func (sv *servingRun) collect(a *arrivals) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for i := range a.ss {
		if a.ss[i].ok && a.ss[i].kind == 0 {
			sv.completions++
			sv.ids = append(sv.ids, a.ids[i])
		}
	}
}

// phaseFunc runs one open-loop phase over the given arrivals, filling
// a.ss and a.ids (the invocation id of each completed invocation), and
// returns the phase start.
type phaseFunc func(a *arrivals, traced bool) time.Time

// account adds a phase's attempts and failures to the run's totals.
func (r *run) account(ss []sample, st phaseStats) {
	r.attempted += int64(len(ss))
	r.failed += int64(st.failed)
}

// saturateFunc runs the closed-loop saturation phase for dur.
type saturateFunc func(dur time.Duration) closedStats

// run executes the timed phases. Untraced: one fixed-rate phase for the
// whole run, which gives the end-to-end metrics. Traced: an untraced
// fixed-rate phase and, when the workload has one, a closed-loop
// saturation phase (goodput_rps) in the first half; a traced
// fixed-rate phase in the second half; then the probes.
func (sv *servingRun) run(phase phaseFunc, saturate saturateFunc) {
	r := sv.r
	rate, limit := r.wl.RateRPS, r.wl.LimitMs
	fixedDur := r.seconds
	if r.traced {
		fixedDur = r.seconds / 2
		if saturate != nil {
			fixedDur = r.seconds * 3 / 8
		}
	}
	a := sv.arrivals(poisson(r.rng, rate, fixedDur))
	defer a.free()
	w := watchRuntime()
	start := phase(a, false)
	rs := w.finish()
	sv.collect(a)
	ss := a.ss
	st := summarize(ss, start, 0, limit)
	r.account(ss, st)
	r.check("generator_on_time", st.lagP99Ms <= limit,
		"generator lag p99 %.3f ms over the %.0f ms limit: the run measured its own generator", st.lagP99Ms, limit)
	r.notes["steal_share"] = rs.stealShare()
	r.latency(st)
	sv.fixedCPU = rs.CPU
	if !r.traced {
		r.setE2E("cpu_us_per_op", "us", share(us(rs.CPU), float64(len(ss))))
		r.setE2E("heap_p90_mb", "MB", rs.HeapP90MB-float64(a.extra)/mb)
		return
	}

	// Windows of a second hold about rate_rps completions each.
	goodput := medianRate(st.goodAt, start, start.Add(fixedDur), time.Second)
	if saturate != nil {
		cs := saturate(r.seconds / 8)
		sv.mu.Lock()
		sv.completions += int64(cs.ok)
		sv.ids = append(sv.ids, cs.ids...)
		sv.mu.Unlock()
		r.attempted += int64(cs.n)
		r.failed += int64(cs.n - cs.ok)
		goodput = medianRate(cs.goodAt, cs.start, cs.end, goodputWindow)
		r.notes["saturation"] = map[string]int{"sent": cs.n, "ok": cs.ok, "within_limit": len(cs.goodAt)}
	}
	r.setLayer("goodput_rps", "1/s", goodput)

	epoch := time.Now()
	r.tr = newTracer(epoch)
	ta := sv.arrivals(poisson(r.rng, rate, r.seconds/2))
	defer ta.free()
	w = watchRuntime()
	start = phase(ta, true)
	rs = w.finish()
	sv.collect(ta)
	ts := ta.ss
	tst := summarize(ts, start, 0, limit)
	r.account(ts, tst)
	r.runtimeLayers(rs)
	r.setLayer("gen.lag_p99_ms", "ms", tst.lagP99Ms)
	r.setLayer("fail_share", "ratio", share(float64(st.failed+tst.failed), float64(st.n+tst.n)))
	r.setLayer("trace.overhead_share", "ratio", share(median(tst.lat), median(st.lat)))
	sv.traceRequests(ts, tst, start.Sub(epoch))
	if err := r.servingProbes(sv.app, sv.name, r.wl.Scale); err != nil {
		r.check("probes", false, "%v", err)
	}
}

// arrivals allocates a phase's arrays and the workload's further inputs.
func (sv *servingRun) arrivals(due []time.Duration) *arrivals {
	a := newArrivals(due)
	if sv.prepare != nil {
		sv.prepare(a)
	}
	return a
}

// traceRequests records each traced request's spans and the per-layer
// budget at p50 over the requests st summarizes. off shifts phase
// offsets onto the tracer's epoch.
//
// Every budget part is the length of a span the benchmark timed, or a
// part the app reported, never a remainder of the latency, so the
// unattributed residual is the time that no span covers:
//   - wait: from due to send, when the sender was busy;
//   - client: over HTTP, from send until the request was written and
//     from the reply's first byte until it was decoded (net/http/httptrace);
//     over UDP, the send call;
//   - ingress: the handler span (the middleware around App.Handler, or
//     the call to App.Invoke in-process) minus the app's reported parts;
//   - admission, pool, live: the app's reported queue wait, cold start
//     and execution.
//
// Over HTTP the residual is the loopback transfer and net/http's work
// outside the handler; over UDP, where no span wraps the server, it is
// the whole UDP plane and the transfer. In-process (churn-mix) the
// spans wrap the whole call, so the residual is the gap between clock
// reads.
func (sv *servingRun) traceRequests(ss []sample, st phaseStats, off time.Duration) {
	r, tr := sv.r, sv.r.tr
	var handler, self, client, queue []float64
	b := newBudget("wait", "client", "ingress", "admission", "pool", "live")
	inBand := map[int]bool{}
	for _, j := range p50Band(st.lat) {
		inBand[st.idx[j]] = true
	}
	for i := range ss {
		s := &ss[i]
		if s.kind != 0 || !s.ok {
			continue
		}
		if sv.ingress == "serve.http" && s.hEnd == 0 {
			continue // the middleware's record did not arrive in time
		}
		queue = append(queue, ms(s.parts.queue))
		tid := int(s.sender)
		tr.span(pidRequests, tid, "request", "request", off+s.from, off+s.done)
		if s.from == s.due && s.sent > s.due {
			tr.span(pidRequests, tid, "wait.sender", "gen", off+s.due, off+s.sent)
		}
		var cl, ing time.Duration
		in0 := s.sent // where the app's parts are laid out from
		switch sv.ingress {
		case "serve.http": // the client legs and the handler span
			cl = (s.wrote - s.sent) + (s.done - s.firstByte)
			ing = (s.hEnd - s.hStart) - s.parts.total()
			in0 = s.hStart
			handler = append(handler, us(s.hEnd-s.hStart))
			client = append(client, us(cl))
			self = append(self, us(ing))
			tr.span(pidRequests, tid, "client.write", "client", off+s.sent, off+s.wrote)
			tr.span(pidRequests, tid, sv.ingress, "ingress", off+s.hStart, off+s.hEnd)
			tr.span(pidRequests, tid, "client.read", "client", off+s.firstByte, off+s.done)
		case "udp": // the send call; the server is not wrapped
			cl = s.wrote - s.sent
			self = append(self, us((s.done-s.wrote)-s.parts.total()))
			tr.span(pidRequests, tid, "client.write", "client", off+s.sent, off+s.wrote)
			in0 = s.wrote
		default: // in-process: the call to App.Invoke
			ing = (s.done - s.sent) - s.parts.total()
			self = append(self, us(ing))
			tr.span(pidRequests, tid, sv.ingress, "ingress", off+s.sent, off+s.done)
		}
		// The app reports its parts as durations only; they are laid
		// out in order from the start of the span that holds them.
		t := off + in0
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"serve.admission", s.parts.queue}, {"serve.pool.cold", s.parts.cold}, {"live.RunCtx", s.parts.exec}} {
			if p.d > 0 {
				tr.span(pidRequests, tid, p.name, "app", t, t+p.d)
				t += p.d
			}
		}
		if inBand[i] {
			b.add(us(s.latency()), map[string]float64{
				"wait": us(s.sent - s.from), "client": us(cl), "ingress": us(ing),
				"admission": us(s.parts.queue), "pool": us(s.parts.cold), "live": us(s.parts.exec),
			})
		}
	}
	b.report(r)
	r.setLayer("serve.admission.queue_wait_p99_ms", "ms", quantile(queue, 0.99))
	r.setLayer("serve.http.handler_p50_us", "us", median(handler))
	r.setLayer("serve.http.handler_p99_us", "us", quantile(handler, 0.99))
	r.setLayer("serve.http.client_us", "us", median(client))
	r.setLayer(sv.ingress+".self_us", "us", median(self))
}

// finish takes the closing counter snapshot, runs the end-of-run checks
// and tears the system down.
func (sv *servingRun) finish(teardown func() error) error {
	r := sv.r
	after, err := counters(sv.app.Registry())
	if err != nil {
		return err
	}
	info, err := sv.app.ActivePlan(sv.name)
	if err != nil {
		return err
	}
	if sv.steady {
		r.steadyGuard(sv.before, after, sv.v0, info.Version)
	}
	r.accountingChecks(sv.before, after, sv.completions)
	if r.traced {
		r.counterLayers(sv.before, after)
	}
	r.failed += sv.wrongN
	r.check("replies_ok", sv.wrongN == 0, "%d wrong replies, first: %v", sv.wrongN, sv.firstWrong)
	sort.Slice(sv.ids, func(i, j int) bool { return sv.ids[i] < sv.ids[j] })
	dup := 0
	for i := 1; i < len(sv.ids); i++ {
		if sv.ids[i] == sv.ids[i-1] {
			dup++
		}
	}
	r.check("invocation_ids_unique", dup == 0, "%d duplicate invocation ids", dup)
	if err := teardown(); err != nil {
		return err
	}
	if r.traced {
		path, err := r.tr.write(r.name, r.seed)
		if err != nil {
			return err
		}
		r.notes["trace_file"] = path
	}
	return nil
}

// limitOf is the workload's latency limit.
func limitOf(r *run) time.Duration { return time.Duration(r.wl.LimitMs * float64(time.Millisecond)) }
