package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"chiron/internal/serve"
	"chiron/internal/udp"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// matches reports whether the spec lists exactly the metrics the
// benchmark reports, with the same units.
func (s benchSpec) matches() error {
	for _, set := range []struct {
		spec []specMetric
		defs []metricDef
	}{{s.EndToEnd, endToEnd}, {s.PerLayer, perLayer}} {
		if len(set.spec) != len(set.defs) {
			return fmt.Errorf("BENCHMARK.json lists %d metrics where the benchmark reports %d", len(set.spec), len(set.defs))
		}
		for i, d := range set.defs {
			if m := set.spec[i]; m.Name != d.name || m.Unit != d.unit {
				return fmt.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark reports %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	return nil
}

func readBenchSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// worse returns how much worse b is than a, as a share of a, for a
// metric whose better direction is given.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfTestDelay is about 15% of http-social's lat_p50_ms on a quiet
// 2-vCPU machine (0.47 to 0.53 ms over seeds 1 to 5). It is fixed rather
// than sized from a base run because host stalls inflate a run's median
// several times over, and a delay sized from an inflated median pushes
// the workload past its capacity.
const selfTestDelay = 80 * time.Microsecond

// selfMetrics are the metrics an untraced run measures that the
// self-test watches, with the direction in which a delay moves them:
// every gated end-to-end metric but setup_s, and the latencies.
var selfMetrics = []struct{ name, better string }{
	{"lat_p10_ms", "lower"}, {"cpu_us_per_op", "lower"}, {"heap_p90_mb", "lower"}, {"lat_p50_ms", "lower"},
}

// selfTest checks that the benchmark sees a change where one was made
// and nowhere else. A fixed per-request delay, selfTestDelay, is added
// in the benchmark's HTTP middleware as a blocking wait that burns no
// CPU itself. Over alternating pairs of short runs with and without it, a
// metric is flagged when the delayed side is worse in at least nine
// pairs in ten and its median is worse by more than the spread
// (quartile distance over median) of the undelayed runs. The self-test
// passes when some watched metric is flagged on http-social and none on
// udp-finra50, whose requests never cross that middleware.
func selfTest(cfg config, seed int64, seconds int) int {
	if seed == 0 {
		seed = cfg.DefaultSeed
	}
	dur := time.Duration(seconds) * time.Second
	measure := func(workload string, s int64, delay time.Duration) (map[string]float64, error) {
		r, err := execute(cfg, workload, s, dur, false, delay)
		if err != nil {
			return nil, err
		}
		if !r.correct() {
			return nil, fmt.Errorf("%s seed %d delay %v failed its checks", workload, s, delay)
		}
		out := map[string]float64{}
		for _, m := range selfMetrics {
			v, ok := r.e2e[m.name]
			if !ok {
				v = r.layers[m.name]
			}
			out[m.name] = v.Value
		}
		return out, nil
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "e2ebench: selftest: %v\n", err)
		return 2
	}
	delay := selfTestDelay
	const pairs = 6
	report := map[string]interface{}{"delay_us": us(delay)}
	ok := true
	for _, workload := range []string{"http-social", "udp-finra50"} {
		off, on := map[string][]float64{}, map[string][]float64{}
		wins := map[string]int{}
		for i := 0; i < pairs; i++ {
			s := seed + int64(i)
			order := []time.Duration{0, delay}
			if i%2 == 1 {
				order = []time.Duration{delay, 0}
			}
			got := map[time.Duration]map[string]float64{}
			for _, d := range order {
				m, err := measure(workload, s, d)
				if err != nil {
					return fail(err)
				}
				got[d] = m
			}
			for _, m := range selfMetrics {
				a, b := got[0][m.name], got[delay][m.name]
				off[m.name], on[m.name] = append(off[m.name], a), append(on[m.name], b)
				if worse(a, b, m.better) > 0 {
					wins[m.name]++
				}
			}
		}
		var flagged, gated []string
		detail := map[string]interface{}{}
		for _, m := range selfMetrics {
			o := off[m.name]
			spread := share(quantile(o, 0.75)-quantile(o, 0.25), median(o))
			shift := worse(median(o), median(on[m.name]), m.better)
			if wins[m.name]*10 >= 9*pairs && shift > spread {
				flagged = append(flagged, m.name)
				if isEndToEnd(m.name) {
					gated = append(gated, m.name)
				}
			}
			detail[m.name] = map[string]interface{}{
				"off": o, "on": on[m.name], "shift": shift, "off_spread": spread, "pairs_worse": wins[m.name],
			}
		}
		want := workload == "http-social"
		ok = ok && (len(flagged) > 0) == want
		detail["flagged"], detail["flagged_gated"], detail["want_flagged"] = flagged, gated, want
		report[workload] = detail
	}
	report["pass"] = ok
	b, err := json.Marshal(report)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !ok {
		return 1
	}
	return 0
}

// harnessCPU measures how much of cpu_us_per_op is the benchmark's own
// work on the two socket workloads. Each workload's fixed-rate schedule
// is driven once against the real system and once against a stub
// server that answers every request at once with a canned reply: for
// http-social the benchmark's middleware answers instead of
// App.Handler, so the stub run still pays net/http's server side; for
// udp-finra50 a goroutine on a plain socket parses each packet's header
// and sends a reply. The stub run's CPU time per operation is therefore
// an upper bound on the share of the benchmark's clients, generator and
// heap poller. It prints one JSON line.
func harnessCPU(cfg config, seed int64, seconds int) int {
	if seed == 0 {
		seed = cfg.DefaultSeed
	}
	dur := time.Duration(seconds) * time.Second
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "e2ebench: harness-cpu: %v\n", err)
		return 2
	}
	// perOp drives one schedule at the workload's rate through phase
	// under a runtime watch, as a timed phase does.
	perOp := func(r *run, phase func(a *arrivals)) float64 {
		a := newArrivals(poisson(r.rng, r.wl.RateRPS, dur))
		defer a.free()
		w := watchRuntime()
		phase(a)
		return share(us(w.finish().CPU), float64(len(a.due)))
	}
	report := map[string]interface{}{}
	add := func(workload string, full, stub float64) {
		report[workload] = map[string]float64{
			"cpu_us_per_op": full, "stub_cpu_us_per_op": stub, "harness_share_max": share(stub, full),
		}
	}

	r, err := newRun(cfg, "http-social", seed, dur, false, 0)
	if err != nil {
		return fail(err)
	}
	h, err := newHTTPHarness(r)
	if err != nil {
		return fail(err)
	}
	drive := func(a *arrivals) {
		driveSync(a, r.senders, func(i int, s *sample) { _, _ = h.invoke(-1, s) })
	}
	full := perOp(r, drive)
	h.mw.stub.Store(true)
	stub := perOp(r, drive)
	if err := h.close(); err != nil {
		return fail(err)
	}
	add("http-social", full, stub)

	if r, err = newRun(cfg, "udp-finra50", seed, dur, false, 0); err != nil {
		return fail(err)
	}
	u, err := newUDPHarness(r)
	if err != nil {
		return fail(err)
	}
	full = perOp(r, func(a *arrivals) { u.phase(a, func(error) {}) })
	if err := u.close(); err != nil {
		return fail(err)
	}
	if stub, err = udpStubPerOp(r, perOp); err != nil {
		return fail(err)
	}
	add("udp-finra50", full, stub)

	b, err := json.Marshal(report)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}

// udpStubPerOp drives udp-finra50's schedule against a stub UDP server
// that answers each invocation with StatusOK.
func udpStubPerOp(r *run, perOp func(*run, func(*arrivals)) float64) (float64, error) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [udp.MaxDatagram]byte
		var out [udp.ReplySize]byte
		var hd udp.Header
		for {
			n, addr, err := pc.ReadFromUDP(buf[:])
			if err != nil {
				return
			}
			if udp.ParseHeader(buf[:n], &hd) != nil {
				continue
			}
			k := udp.EncodeReply(out[:], &udp.Reply{Type: udp.TypeReply, Status: udp.StatusOK, ID: hd.ID, PlanVersion: 1})
			_, _ = pc.WriteToUDP(out[:k], addr)
		}
	}()
	conn, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		pc.Close()
		<-done
		return 0, err
	}
	u := &udpHarness{conn: conn, hash: serve.HashName(r.wl.Workflow)}
	v := perOp(r, func(a *arrivals) { u.phase(a, func(error) {}) })
	err = errors.Join(conn.Close(), pc.Close())
	<-done
	return v, err
}

// savedResult is one file written by run.save.
type savedResult struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Manifest manifest `json:"manifest"`
	Result   result   `json:"result"`
}

func loadResults(dir string) ([]savedResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []savedResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s savedResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !s.Trace {
			out = append(out, s)
		}
	}
	return out, nil
}

// compareResults compares the untraced results in two directories (a
// base and a candidate), workload by workload: a metric regresses when
// the candidate's median is worse than the base's by more than the
// metric's bound. Results from differing machines are refused, not
// compared. Exit status: 0 no regression, 1 regression, 2 refused.
func compareResults(baseDir, candDir string) int {
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: compare: %v\n", err)
		return 2
	}
	base, err := loadResults(baseDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: compare: %v\n", err)
		return 2
	}
	cand, err := loadResults(candDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: compare: %v\n", err)
		return 2
	}
	keys := map[string]bool{}
	for _, s := range append(append([]savedResult(nil), base...), cand...) {
		keys[s.Manifest.machineKey()] = true
	}
	if len(keys) != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: compare: refused, results come from %d different machines: %v\n", len(keys), sortedKeys(keys))
		return 2
	}
	values := func(rs []savedResult, workload, metric string) []float64 {
		var out []float64
		for _, s := range rs {
			if s.Workload == workload {
				out = append(out, s.Result.Metrics[metric].Value)
			}
		}
		return out
	}
	workloads := map[string]bool{}
	for _, s := range cand {
		workloads[s.Workload] = true
	}
	status := 0
	for _, wl := range sortedKeys(workloads) {
		for _, m := range spec.EndToEnd {
			a, b := values(base, wl, m.Name), values(cand, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			w := worse(median(a), median(b), m.Better)
			verdict := "ok"
			if w > m.Bound {
				verdict, status = "REGRESSION", 1
			}
			fmt.Printf("%-12s %-13s base %10.4f (n=%d)  cand %10.4f (n=%d)  worse %+6.1f%% bound %4.0f%%  %s\n",
				wl, m.Name, median(a), len(a), median(b), len(b), 100*w, 100*m.Bound, verdict)
		}
	}
	return status
}
