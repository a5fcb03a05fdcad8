// Command chirond is the Chiron serving daemon: an HTTP gateway over
// internal/serve. It registers workflows, plans them with PGP, executes
// invocations on the live executor behind warm-wrap pools and admission
// control, and adapts plans to live latency drift. Adaptation is
// calibrated and hysteretic (-cooldown, -min-improve), a regressing
// swap rolls back automatically (-rollback-guard), and retired plan
// epochs (-plan-history) can be restored manually via
// POST /workflows/{name}/plan/rollback.
//
//	chirond -addr 127.0.0.1:8080 -preload SocialNetwork -plan -slo 300ms
//
// The daemon prints "chirond listening on http://HOST:PORT" once the
// listener is up (use -addr 127.0.0.1:0 for an ephemeral port and parse
// that line). SIGINT/SIGTERM drain gracefully: the listener closes,
// in-flight requests finish, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chiron/internal/loadgen"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
	"chiron/internal/serve"
	"chiron/internal/udp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "chirond:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr *os.File) error {
	fs := flag.NewFlagSet("chirond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		udpAddr      = fs.String("udp", "", "binary UDP ingress listen address (e.g. 127.0.0.1:9053; empty = disabled)")
		scale        = fs.Float64("scale", 1.0, "time scale for modelled durations (0.05 = 20x faster than nominal)")
		slo          = fs.Duration("slo", 0, "default latency SLO at plan time (0 = workflow SLO or auto)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request execution timeout")
		maxConc      = fs.Int("max-concurrency", 0, "max concurrent executions per workflow (0 = 2x GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 64, "admission queue depth per workflow")
		keepAlive    = fs.Duration("keepalive", time.Minute, "warm instance keep-alive")
		cooldown     = fs.Int("cooldown", 0, "min full windows between plan adaptations (0 = default 2)")
		minImp       = fs.Float64("min-improve", 0, "min-improvement gate fraction for adopting a fresh plan (0 = default 0.1)")
		rbGuard      = fs.Float64("rollback-guard", 0, "post-swap regression factor that triggers auto-rollback (0 = default 1.1)")
		history      = fs.Int("plan-history", 0, "retired plan epochs kept per workflow for rollback (0 = default 4)")
		preload      = fs.String("preload", "", "comma-separated builtin workloads to register at boot (e.g. SocialNetwork)")
		planBoot     = fs.Bool("plan", false, "plan preloaded workflows at boot")
		drainWait    = fs.Duration("drain", 30*time.Second, "max graceful drain on SIGTERM")
		selfbench    = fs.Int("selfbench", 0, "after boot, fire N closed-loop invocations at the first preloaded workflow, print stats and exit")
		benchConc    = fs.Int("selfbench-conc", 4, "selfbench closed-loop concurrency")
		flightRing   = fs.Int("flight-ring", 0, "retained flight traces kept for /debug/flight (0 = default 256)")
		flightSample = fs.Float64("flight-sample", 0, "flight recorder probabilistic sample rate for healthy traces (0 = default 0.01)")
		sloTarget    = fs.Float64("slo-target", 0, "SLO availability target for the burn-rate monitor, e.g. 0.99 (0 = default 0.99)")
		runtimeInt   = fs.Duration("runtime-interval", 5*time.Second, "runtime/metrics polling interval for chiron_runtime_* gauges (0 disables)")
		hedgeQ       = fs.Float64("hedge-quantile", 0, "arm a hedged second attempt once a request runs past this multiple of the bias-corrected predicted latency (0 = hedging off)")
		hedgeMax     = fs.Int("hedge-max-inflight", 0, "max concurrent hedge attempts across all workflows (0 = default 64)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	// The daemon serves the process-wide default registry so /metrics
	// includes the process-wide caches (chiron_predict_cache_*,
	// chiron_profile_cache_*) and worker-pool gauges next to the serving
	// counters, not just what serve registers itself.
	reg := obs.Default
	build := obs.RegisterBuildInfo(reg)
	fl := flight.New(flight.Options{
		RingSize:   *flightRing,
		SampleRate: *flightSample,
		SLOTarget:  *sloTarget,
		Reg:        reg,
	})
	app := serve.New(serve.Options{
		Scale:          *scale,
		SLO:            *slo,
		RequestTimeout: *timeout,
		MaxConcurrency: *maxConc,
		MaxQueue:       *maxQueue,
		KeepAlive:      *keepAlive,
		Cooldown:       *cooldown,
		MinImprovement: *minImp,
		RollbackGuard:  *rbGuard,
		PlanHistory:    *history,
		Reg:            reg,
		Flight:         fl,

		HedgeQuantile:    *hedgeQ,
		HedgeMaxInflight: *hedgeMax,
	})
	fmt.Fprintf(stdout, "chirond build: version=%s go=%s\n", build.Version, build.GoVersion)

	if *runtimeInt > 0 {
		bridge := obs.NewRuntimeBridge(reg)
		bridge.Start(*runtimeInt)
		defer bridge.Stop()
	}

	var preloaded []string
	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := app.RegisterBuiltin(name); err != nil {
				return err
			}
			preloaded = append(preloaded, name)
			if *planBoot {
				info, err := app.PlanWorkflow(name, *slo)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "chirond: planned %s v%d predicted=%v slo=%v wraps=%d\n",
					name, info.Version, info.Predicted, info.SLO, info.Plan.NumWraps())
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: app.Handler()}
	fmt.Fprintf(stdout, "chirond listening on http://%s\n", ln.Addr())

	// Binary UDP ingress: same app, so UDP invocations share the HTTP
	// plane's admission queues, warm pools and metrics registry.
	var usrv *udp.Server
	if *udpAddr != "" {
		usrv, err = udp.New(app, udp.Options{Addr: *udpAddr, Reg: app.Registry()})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chirond udp listening on %s\n", usrv.Addr())
	}
	closeUDP := func() {
		if usrv != nil {
			_ = usrv.Close() // stops ingress, drains in-flight UDP invokes
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if *selfbench > 0 {
		if len(preloaded) == 0 {
			return fmt.Errorf("-selfbench needs -preload (and -plan)")
		}
		url := fmt.Sprintf("http://%s/workflows/%s/invoke", ln.Addr(), preloaded[0])
		stats, err := loadgen.DriveHTTP(context.Background(), url, loadgen.DriveOptions{
			Requests:    *selfbench,
			Concurrency: *benchConc,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chirond selfbench: sent=%d ok=%d rejected=%d failed=%d mean=%v p50=%v p95=%v p99=%v throughput=%.1f req/s\n",
			stats.Sent, stats.OK, stats.Rejected, stats.Failed,
			stats.Mean, stats.P50, stats.P95, stats.P99, stats.Throughput)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		closeUDP()
		_ = srv.Shutdown(shutdownCtx)
		return app.Shutdown(shutdownCtx)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "chirond: %v, draining (max %v)\n", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		closeUDP()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := app.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintln(stdout, "chirond: drained cleanly")
		return nil
	}
}
