// Benchmarks: one testing.B per figure/table of the paper's evaluation
// (each iteration regenerates the full experiment, so `go test -bench=.`
// doubles as the reproduction harness), plus micro-benchmarks of the hot
// substrates (GIL simulation, wrap execution, PGP planning, the engine).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig13 -benchtime=1x   # one-shot table
package chiron_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiron"
	"chiron/internal/behavior"
	"chiron/internal/engine"
	"chiron/internal/experiments"
	"chiron/internal/gil"
	"chiron/internal/live"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/parallel"
	"chiron/internal/pgp"
	"chiron/internal/platform"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/serve"
	"chiron/internal/udp"
	"chiron/internal/workloads"
)

// benchExperiment runs one experiment per iteration. Quick mode keeps
// -bench=. affordable; run cmd/chiron-bench for the full-size tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Default()
	cfg.Quick = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig03SchedulingOverhead(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig04Transmission(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig05Timelines(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig06LatencyComparison(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07NoGILCPUs(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig08Resources(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkTable01Isolation(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig11PGPTrace(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12PredictionError(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13OverallLatency(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14SLOViolations(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15LatencyCDF(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16MemoryThroughput(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17CPUAllocation(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18NoGIL(b *testing.B)              { benchExperiment(b, "fig18") }
func BenchmarkFig19DollarCost(b *testing.B)         { benchExperiment(b, "fig19") }

// ---- substrate micro-benchmarks ----

func gilSpecs(n int) []*behavior.Spec {
	specs := make([]*behavior.Spec, n)
	for i := range specs {
		specs[i] = &behavior.Spec{
			Name: "f", Runtime: behavior.Python,
			Segments: []behavior.Segment{
				{Kind: behavior.CPU, Dur: 2 * time.Millisecond},
				{Kind: behavior.NetIO, Dur: time.Millisecond},
				{Kind: behavior.CPU, Dur: time.Millisecond},
			},
			MemMB: 1,
		}
	}
	return specs
}

// BenchmarkGILSimulate50Threads measures Algorithm 1's core: simulating
// 50 GIL-contended threads (the Predictor's inner loop).
func BenchmarkGILSimulate50Threads(b *testing.B) {
	specs := gilSpecs(50)
	opt := gil.Options{Procs: 1, Quantum: 5 * time.Millisecond, Spawn: gil.MainThread,
		SpawnBatch: 8, SpawnCost: 300 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gil.Simulate(specs, opt)
	}
}

// BenchmarkGILSimulate200Pool measures the pool scheduler at FINRA-200
// scale.
func BenchmarkGILSimulate200Pool(b *testing.B) {
	specs := gilSpecs(200)
	opt := gil.Options{Procs: 8, Quantum: 5 * time.Millisecond, Spawn: gil.Dispatcher,
		SpawnCost: 450 * time.Microsecond, Workers: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gil.Simulate(specs, opt)
	}
}

// BenchmarkProfileWorkflow measures the Profiler on the FINRA-50 workflow
// (solo runs, strace recording, log parsing, rescaling).
func BenchmarkProfileWorkflow(b *testing.B) {
	w := workloads.FINRA(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGPPlanFINRA100 measures the scheduler on the paper's Figure 11
// input: FINRA-100 under a 200 ms SLO.
func BenchmarkPGPPlanFINRA100(b *testing.B) {
	w := workloads.FINRA(100)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, pgp.Options{Const: model.Default(), SLO: 200 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGPPlanHeterogeneous measures Kernighan-Lin refinement on the
// mixed-class SLApp-V (the homogeneous shortcut does not apply).
func BenchmarkPGPPlanHeterogeneous(b *testing.B) {
	w := workloads.SLAppV()
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, pgp.Options{Const: model.Default(), SLO: 60 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequestFINRA50 measures one ground-truth request under
// the Chiron deployment.
func BenchmarkEngineRequestFINRA50(b *testing.B) {
	w := workloads.FINRA(50)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sys := platform.Chiron(model.Default())
	plan, err := sys.Plan(w, set, 300*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	env := sys.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Seed = int64(i)
		if _, err := engine.Run(w, plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequestASF200 measures the most event-heavy baseline:
// Step Functions driving FINRA-200 one-to-one.
func BenchmarkEngineRequestASF200(b *testing.B) {
	w := workloads.FINRA(200)
	sys := platform.ASF(model.Default())
	plan, err := sys.Plan(w, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	env := sys.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Seed = int64(i)
		if _, err := engine.Run(w, plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveRunFINRA50 measures the live executor's own cost: one
// warm FINRA-50 request under the Chiron plan at Scale 1e-6, where the
// modelled sleeps shrink to nanoseconds and what remains is goroutines,
// GIL handoffs, joins and span bookkeeping (the executor-overhead layer
// of the serving budget).
func BenchmarkLiveRunFINRA50(b *testing.B) {
	w := workloads.FINRA(50)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := platform.Chiron(model.Default()).Plan(w, set, 300*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	opt := live.Options{Const: model.Default(), Scale: 1e-6}
	if _, err := live.Run(w, plan, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live.Run(w, plan, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployFacade measures the whole public-API path: profile +
// plan + one invocation.
func BenchmarkDeployFacade(b *testing.B) {
	w := chiron.SocialNetwork()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dep, err := chiron.Deploy(w, 80*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.Invoke(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- parallel harness benchmarks ----

// benchSuiteQuick regenerates a representative slice of the evaluation
// (one experiment per fan-out shape) at a given worker-pool width.
func benchSuiteQuick(b *testing.B, workers int) {
	b.Helper()
	prev := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	ids := []string{"fig3", "fig6", "fig13", "fig15"}
	cfg := experiments.Default()
	cfg.Quick = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := experiments.Run(id, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteQuickSequential is the 1-worker baseline for the harness:
// compare against BenchmarkSuiteQuickParallel for the multi-core speedup
// (tables are byte-identical either way).
func BenchmarkSuiteQuickSequential(b *testing.B) { benchSuiteQuick(b, 1) }

// BenchmarkSuiteQuickParallel runs the same slice with the pool at
// NumCPU workers.
func BenchmarkSuiteQuickParallel(b *testing.B) { benchSuiteQuick(b, runtime.NumCPU()) }

// BenchmarkPGPPlanCachedReplan measures a warm re-plan: the second and
// later Plan calls for an unchanged workload are served almost entirely
// from the shared prediction cache (the adapt controller's steady-state
// path). The first iteration pays the cold simulations; b.N iterations
// amortize to the cached cost. Reported alongside: the cache hit rate.
func BenchmarkPGPPlanCachedReplan(b *testing.B) {
	w := workloads.FINRA(100)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := pgp.Options{Const: model.Default(), SLO: 200 * time.Millisecond}
	if _, err := pgp.Plan(w, set, opt); err != nil { // warm the cache
		b.Fatal(err)
	}
	before := predict.ExecCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := predict.ExecCacheStats()
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups > 0 {
		b.ReportMetric(float64(after.Hits-before.Hits)/float64(lookups), "hit-rate")
	}
}

// BenchmarkGILSimulatePooled50Threads is BenchmarkGILSimulate50Threads on
// a reused Sim — the zero-copy path PGP's candidate pricing runs on. The
// allocs/op column is the guarded budget: 0 once warm.
func BenchmarkGILSimulatePooled50Threads(b *testing.B) {
	specs := gilSpecs(50)
	opt := gil.Options{Procs: 1, Quantum: 5 * time.Millisecond, Spawn: gil.MainThread,
		SpawnBatch: 8, SpawnCost: 300 * time.Microsecond}
	s := gil.NewSim()
	s.Simulate(specs, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(specs, opt)
	}
}

// BenchmarkGILSimulatePooled200Pool is the dispatcher scheduler at
// FINRA-200 scale on a reused Sim.
func BenchmarkGILSimulatePooled200Pool(b *testing.B) {
	specs := gilSpecs(200)
	opt := gil.Options{Procs: 8, Quantum: 5 * time.Millisecond, Spawn: gil.Dispatcher,
		SpawnCost: 450 * time.Microsecond, Workers: 200}
	s := gil.NewSim()
	s.Simulate(specs, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(specs, opt)
	}
}

// BenchmarkGatewayInvoke is one end-to-end request through the serving
// plane — HTTP in, admission, warm-pool lease, live execution of the
// SocialNetwork workload, JSON out — with modelled time compressed to
// 0.1% so the measured cost is the gateway itself plus the (scaled)
// execution, not the paper's wall-clock sleeps. The first request boots
// the instance cold outside the timed region; every iteration after is
// the steady-state warm path.
func BenchmarkGatewayInvoke(b *testing.B) {
	app := serve.New(serve.Options{Scale: 0.001, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	}()
	if _, err := app.RegisterBuiltin("SocialNetwork"); err != nil {
		b.Fatal(err)
	}
	if _, err := app.PlanWorkflow("SocialNetwork", 0); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(app.Handler())
	defer srv.Close()
	url := srv.URL + "/workflows/SocialNetwork/invoke"
	post := func() {
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("invoke: HTTP %d", resp.StatusCode)
		}
	}
	post() // cold boot outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkUDPInvoke is the binary ingress plane's answer to
// BenchmarkGatewayInvoke: the same SocialNetwork invocation at the same
// 0.1% time scale, but over the UDP protocol and closed-loop at the
// protocol's natural width — 32 workers, each with one connected,
// token-handshaked client and one invocation outstanding. ns/op is
// wall-clock per completed invocation, so the invokes/sec ratio against
// the serial HTTP gateway benchmark is the headline throughput claim
// (the per-request ingress cost itself is BenchmarkUDPPacketPath).
func BenchmarkUDPInvoke(b *testing.B) {
	const conc = 32
	app := serve.New(serve.Options{Scale: 0.001, MaxConcurrency: conc, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	}()
	if _, err := app.RegisterBuiltin("SocialNetwork"); err != nil {
		b.Fatal(err)
	}
	if _, err := app.PlanWorkflow("SocialNetwork", 0); err != nil {
		b.Fatal(err)
	}
	srv, err := udp.New(app, udp.Options{Reg: app.Registry(), Workers: conc})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	hash := udp.HashWorkflow("SocialNetwork")
	clients := make([]*udp.Client, conc)
	for i := range clients {
		c, err := udp.Dial(srv.Addr().String(), 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Boot the warm pool to full width outside the timed region, like
	// the gateway benchmark's single cold post.
	var warm sync.WaitGroup
	for _, c := range clients {
		warm.Add(1)
		go func(c *udp.Client) {
			defer warm.Done()
			if r, err := c.Invoke(hash, nil, 0, 0); err != nil || r.Status != udp.StatusOK {
				b.Errorf("warmup: %+v err=%v", r, err)
			}
		}(c)
	}
	warm.Wait()
	if b.Failed() {
		b.FailNow()
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *udp.Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				r, err := c.Invoke(hash, nil, 0, 0)
				if err != nil {
					b.Error(err)
					return
				}
				if r.Status != udp.StatusOK {
					b.Errorf("status %d", r.Status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkUDPPacketPath is the per-packet ingress cost in isolation:
// filter, header parse, token verification and shared-queue admission
// (plus release), exactly what the receive loop and worker spend on one
// datagram before modelled execution begins. The acceptance bar is 0
// allocs/op — the UDP plane must be able to shed or admit a flood
// without touching the garbage collector.
func BenchmarkUDPPacketPath(b *testing.B) {
	app := serve.New(serve.Options{Scale: 0.001, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	}()
	if _, err := app.RegisterBuiltin("SocialNetwork"); err != nil {
		b.Fatal(err)
	}
	if _, err := app.PlanWorkflow("SocialNetwork", 0); err != nil {
		b.Fatal(err)
	}

	secret, err := udp.NewSecret()
	if err != nil {
		b.Fatal(err)
	}
	addr := netip.MustParseAddrPort("127.0.0.1:40000")
	var pkt [udp.HeaderSize + 16]byte
	if _, err := udp.EncodeInvoke(pkt[:], secret.Token(addr), udp.HashWorkflow("SocialNetwork"), 1, 0, 0, []byte("0123456789abcdef")); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	var h udp.Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !udp.Filter(pkt[:]) {
			b.Fatal("filter dropped a valid packet")
		}
		if err := udp.ParseHeader(pkt[:], &h); err != nil {
			b.Fatal(err)
		}
		if h.Token != secret.Token(addr) {
			b.Fatal("token mismatch")
		}
		ad, err := app.AdmitHash(ctx, h.Hash)
		if err != nil {
			b.Fatal(err)
		}
		ad.Release()
	}
}

// BenchmarkHedgedInvoke is the straggler rail: the TailHeavy workload
// (4% of executions stall an extra 200ms that no model predicted),
// served closed-loop with hedging off and on. Each iteration drives 200
// requests at concurrency 8; p99_ms is the 99th-percentile reported
// total latency across every request of the run and hedge_rate the
// fraction of requests that armed a hedge (the duplicate-work budget).
// Off, p99 sits on the tail (~217ms); on, the hedge re-issues a
// straggling request on a warm instance and p99 collapses toward
// hedge-delay + base.
func BenchmarkHedgedInvoke(b *testing.B) {
	for _, mode := range []struct {
		name     string
		quantile float64
	}{{"off", 0}, {"on", 3}} {
		b.Run(mode.name, func(b *testing.B) {
			const (
				reqPerIter = 200
				conc       = 8
			)
			app := serve.New(serve.Options{
				// Nominal time: at higher compression, timer overshoot on
				// the modelled sleeps (a fixed wall cost) dominates the
				// base latency and every request looks like a straggler.
				Scale:          1,
				MaxConcurrency: 16,
				MaxQueue:       1024,
				HedgeQuantile:  mode.quantile,
				// A window the bench never fills: the adaptive controller
				// would read the tail as drift and its plan swaps would
				// cold-storm both modes, measuring adaptation instead of
				// hedging.
				Window: 1 << 20,
				Reg:    obs.NewRegistry(),
			})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = app.Shutdown(ctx)
			}()
			if _, err := app.RegisterBuiltin("TailHeavy"); err != nil {
				b.Fatal(err)
			}
			if _, err := app.PlanWorkflow("TailHeavy", 0); err != nil {
				b.Fatal(err)
			}
			// Prewarm a full complement of instances so hedges land on
			// warm capacity (steady state), not on a cold boot.
			var warm sync.WaitGroup
			for i := 0; i < 16; i++ {
				warm.Add(1)
				go func() {
					defer warm.Done()
					if _, err := app.Invoke(context.Background(), "TailHeavy", nil); err != nil {
						b.Error(err)
					}
				}()
			}
			warm.Wait()
			if b.Failed() {
				b.FailNow()
			}

			var mu sync.Mutex
			lat := make([]float64, 0, b.N*reqPerIter)
			hedgedN := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < conc; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < reqPerIter/conc; j++ {
							res, err := app.Invoke(context.Background(), "TailHeavy", nil)
							if err != nil {
								b.Error(err)
								return
							}
							mu.Lock()
							lat = append(lat, res.TotalMs)
							if res.Hedged {
								hedgedN++
							}
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			sort.Float64s(lat)
			if len(lat) > 0 {
				b.ReportMetric(lat[len(lat)*99/100], "p99_ms")
				b.ReportMetric(float64(hedgedN)/float64(len(lat)), "hedge_rate")
			}
		})
	}
}
