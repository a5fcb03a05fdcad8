// Command e2ebench is the repository's end-to-end benchmark. It drives
// one named workload against the real serving plane (internal/serve
// behind real HTTP and UDP sockets) or the offline planner and
// reproduction layers, checks every output it gets back, and prints one
// JSON result line:
//
//	go run . --workload http-social --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, records spans around the calls the
// benchmark makes into each layer, writes them as Chrome trace JSON
// under .bench_build/traces and reports the per-layer metrics.
//
// Four further modes are tools rather than measurements: --selftest
// injects a fixed delay into the benchmark's HTTP middleware and checks
// that the delay is flagged on http-social and not on udp-finra50;
// --harness-cpu measures how much of cpu_us_per_op the benchmark's own
// HTTP and UDP clients take, by running them against stub servers;
// --compare A B compares two directories of saved results and refuses
// when their machine manifests differ. --record-digests rewrites
// digests.json from the deterministic plan-suite outputs.
//
// Run it from the repository root through run.sh, which builds it with
// its caches kept under .bench_build.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// wlConfig is one workload's fixed parameters (workloads.json).
type wlConfig struct {
	Why      string  `json:"why"`
	Workflow string  `json:"workflow"`
	Scale    float64 `json:"scale"`
	RateRPS  float64 `json:"rate_rps"`
	LimitMs  float64 `json:"limit_ms"`
	// EachKindPerS is churn-mix's rate of each operation kind other
	// than live invocations.
	EachKindPerS float64           `json:"each_kind_per_s"`
	Goodput      string            `json:"goodput"`
	Reports      map[string]string `json:"reports"`
}

type config struct {
	DefaultSeed int64               `json:"default_seed"`
	Workloads   map[string]wlConfig `json:"workloads"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one named correctness check or steady-state guard.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run is one benchmark invocation's state.
type run struct {
	name    string
	wl      wlConfig
	seed    int64
	seconds time.Duration
	traced  bool
	rng     *rand.Rand
	senders int

	e2e       map[string]metric
	layers    map[string]metric
	checks    []check
	attempted int64
	failed    int64
	notes     map[string]interface{}

	// tr receives spans in the traced phase (nil otherwise).
	tr *tracer
	// delay, when positive, is waited in the HTTP middleware (self-test).
	delay time.Duration
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// check records a correctness check or guard; a failed one fails the run.
func (r *run) check(name string, ok bool, format string, args ...interface{}) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: check %s FAILED: %s\n", name, c.Detail)
	}
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// workloadFuncs maps workload names to the functions that run them.
var workloadFuncs = map[string]func(*run) error{
	"http-social": runHTTPSocial,
	"udp-finra50": runUDPFinra,
	"churn-mix":   runChurnMix,
	"plan-suite":  runPlanSuite,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (http-social, udp-finra50, churn-mix, plan-suite)")
		seed     = flag.Int64("seed", 0, "workload seed (0: the default seed from workloads.json)")
		seconds  = flag.Int("seconds", 10, "timed phase length in seconds")
		traceArg = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		selftest = flag.Bool("selftest", false, "run the sensitivity self-test instead of a workload")
		compare  = flag.Bool("compare", false, "compare two result directories given as arguments")
		record   = flag.Bool("record-digests", false, "rewrite digests.json from plan-suite outputs")
		harness  = flag.Bool("harness-cpu", false, "measure the CPU time per operation the benchmark's own clients take")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result directories"))
		}
		os.Exit(compareResults(flag.Arg(0), flag.Arg(1)))
	case *selftest:
		os.Exit(selfTest(cfg, *seed, *seconds))
	case *harness:
		os.Exit(harnessCPU(cfg, *seed, *seconds))
	case *record:
		if err := recordDigests(); err != nil {
			fatal(err)
		}
		return
	}
	if *seed == 0 {
		*seed = cfg.DefaultSeed
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	r, err := execute(cfg, *workload, *seed, time.Duration(*seconds)*time.Second, *traceArg == 1, 0)
	if err != nil {
		fatal(err)
	}
	res := r.result()
	if err := r.save(res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: saving result: %v\n", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its finished state.
func execute(cfg config, workload string, seed int64, seconds time.Duration, traced bool, delay time.Duration) (*run, error) {
	r, err := newRun(cfg, workload, seed, seconds, traced, delay)
	if err != nil {
		return nil, err
	}
	if err := workloadFuncs[workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return r, nil
}

// newRun prepares one workload's run state.
func newRun(cfg config, workload string, seed int64, seconds time.Duration, traced bool, delay time.Duration) (*run, error) {
	wl, ok := cfg.Workloads[workload]
	if _, okFn := workloadFuncs[workload]; !ok || !okFn {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return &run{
		name:    workload,
		wl:      wl,
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		rng:     rand.New(rand.NewSource(seed)),
		senders: runtime.NumCPU(),
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
		notes:   map[string]interface{}{},
		delay:   delay,
	}, nil
}

// result assembles the output line: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *run) result() result {
	m, defs := r.e2e, endToEnd
	if r.traced {
		m, defs = r.layers, perLayer
	}
	if err := complete(m, defs); err != nil {
		r.check("metric_names", false, "%v", err)
	}
	spec, err := readBenchSpec()
	if err == nil {
		err = spec.matches()
	}
	r.check("benchmark_json_matches", err == nil, "%v", err)
	att := r.attempted
	if att < 1 {
		att = 1
	}
	return result{Correct: r.correct(), Attempted: att, Failed: r.failed, Metrics: m}
}

// save writes the full result (manifest, checks, notes and both metric
// sets) under .bench_build/results for --compare and for reading later.
func (r *run) save(res result) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]interface{}{
		"workload": r.name,
		"seed":     r.seed,
		"seconds":  r.seconds.Seconds(),
		"trace":    r.traced,
		"manifest": readManifest(r.seed),
		"result":   res,
		"layers":   r.layers,
		"checks":   r.checks,
		"notes":    r.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.traced {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.name, r.seed, t)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(2)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
