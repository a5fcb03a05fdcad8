// Package serve is the online serving plane: it turns the repo's
// one-shot planners and executors into a long-running daemon
// (cmd/chirond) with a real request path.
//
// The gateway registers workflows (DAG JSON + behaviour specs), plans
// them with PGP (through the shared prediction cache), and serves
// invocations on internal/live. Around that execution core sit the
// three mechanisms that the orchestration papers (Dirigent,
// Archipelago) show dominate end-to-end behaviour at scale:
//
//   - a warm-wrap pool per active plan: keep-alive sandbox instances
//     priced by internal/sandbox ledgers, with cold/warm accounting —
//     under steady load the cold-start counter stops rising;
//   - a bounded admission queue with backpressure: when the estimated
//     queue sojourn (queue-wait + service, the same decomposition as
//     loadgen) would bust the SLO, or the queue is full, the request is
//     rejected with 429 + Retry-After instead of queueing unboundedly;
//   - a background controller that feeds served latencies into
//     internal/adapt and atomically swaps the active wrap.Plan when a
//     re-plan triggers; in-flight requests finish on the plan (and
//     pool) they started with.
//
// All counters, gauges and histograms live in an obs.Registry
// (obs.Default unless overridden), so /metrics is a plain
// Registry.WriteProm.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chiron/internal/adapt"
	"chiron/internal/dag"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
	"chiron/internal/pgp"
	"chiron/internal/workloads"
	"chiron/internal/wrap"
)

// Options configure an App.
type Options struct {
	// Const is the substrate calibration (zero value: model.Default()).
	Const model.Constants
	// Scale multiplies every modelled duration before sleeping, exactly
	// like live.Options.Scale (0 = 1.0). Cold starts scale too.
	Scale float64
	// SLO is the fallback latency target used at plan time when neither
	// the plan request nor the workflow carries one. Zero means
	// "auto": plan latency-optimal first and serve under 2x its
	// prediction.
	SLO time.Duration
	// RequestTimeout bounds one invocation's execution (default 30s).
	RequestTimeout time.Duration
	// MaxConcurrency bounds concurrently executing requests per
	// workflow (default 2*GOMAXPROCS).
	MaxConcurrency int
	// MaxQueue bounds the admission queue per workflow (default 64).
	// Requests beyond it are rejected with ErrOverloaded.
	MaxQueue int
	// KeepAlive is how long an idle warm instance stays resident before
	// the reaper evicts it (default 1 minute).
	KeepAlive time.Duration
	// KeepAliveJitter spreads each parked instance's expiry uniformly in
	// [KeepAlive*(1-j), KeepAlive*(1+j)], so a plan swap's epoch-wide
	// expiry cannot synchronize a cold-boot storm when traffic returns.
	// Zero means the default 0.1; negative disables jitter entirely.
	KeepAliveJitter float64
	// Window, ViolationTrigger, DriftTrigger, BiasAlpha, Cooldown,
	// MinImprovement and RollbackGuard parameterize the internal/adapt
	// controller (zero: adapt's defaults). Cooldown and MinImprovement
	// are the hysteresis knobs; RollbackGuard arms the post-swap
	// regression check.
	Window           int
	ViolationTrigger float64
	DriftTrigger     float64
	BiasAlpha        float64
	Cooldown         int
	MinImprovement   float64
	RollbackGuard    float64
	// PlanHistory is how many retired plan epochs each workflow keeps
	// for rollback (default 4).
	PlanHistory int
	// HedgeQuantile arms request hedging: once a request has been
	// executing for HedgeQuantile x the plan's bias-corrected predicted
	// latency (the adapt controller's EWMA bias x prediction), a second
	// warm instance is leased and the same invocation re-issued on it;
	// the first completion wins and the loser is cancelled. 1.5 hedges
	// requests past ~1.5x the expected latency. Zero disables hedging.
	HedgeQuantile float64
	// HedgeMaxInflight caps concurrent hedge attempts across the whole
	// app (default 64): under a correlated slowdown every request runs
	// past the quantile, and doubling all of them would double the
	// overload instead of cutting the tail.
	HedgeMaxInflight int
	// PGP carries extra planner options (Style, Iso); Const and SLO are
	// always overridden by the serving plane.
	PGP pgp.Options
	// Reg receives all serving metrics (default obs.Default).
	Reg *obs.Registry
	// Flight is the always-on flight recorder both ingress planes record
	// into (default: a fresh flight.New on Reg). Set it explicitly to
	// share one across apps or to tune ring/sampling/SLO-burn options.
	Flight *flight.Flight
}

func (o *Options) defaults() {
	if o.Const.ColdStart == 0 {
		o.Const = model.Default()
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxConcurrency <= 0 {
		o.MaxConcurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = time.Minute
	}
	if o.KeepAliveJitter == 0 {
		o.KeepAliveJitter = 0.1
	}
	if o.KeepAliveJitter < 0 {
		o.KeepAliveJitter = 0
	}
	if o.PlanHistory <= 0 {
		o.PlanHistory = 4
	}
	if o.HedgeMaxInflight <= 0 {
		o.HedgeMaxInflight = 64
	}
	if o.Reg == nil {
		o.Reg = obs.Default
	}
	if o.Flight == nil {
		o.Flight = flight.New(flight.Options{Reg: o.Reg})
	}
}

// Typed request-path errors; the HTTP layer maps them to status codes.
var (
	// ErrNotFound: the workflow (or async request) is not registered.
	ErrNotFound = errors.New("serve: not found")
	// ErrNoPlan: the workflow is registered but has no active plan.
	ErrNoPlan = errors.New("serve: workflow has no active plan (POST .../plan first)")
	// ErrStalePlan: the registered behaviour no longer matches the
	// active plan (functions were added/renamed); re-plan.
	ErrStalePlan = errors.New("serve: active plan is stale for the registered behaviour")
	// ErrDraining: the app is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrNoHistory: a rollback was requested but the workflow has no
	// retired plan epoch to fall back to.
	ErrNoHistory = errors.New("serve: no prior plan epoch to roll back to")
)

// OverloadError is returned when admission rejects a request; RetryAfter
// is the wall-clock backoff hint surfaced as the Retry-After header.
type OverloadError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// appMetrics are the serving plane's registry handles.
type appMetrics struct {
	requests   *obs.Counter
	errors     *obs.Counter
	rejected   *obs.Counter
	inflight   *obs.Gauge
	queued     *obs.Gauge
	latency    *obs.Histogram
	queueWait  *obs.Histogram
	cold       *obs.Counter
	warmHits   *obs.Counter
	warmGauge  *obs.Gauge
	resident   *obs.Gauge
	replans    *obs.Counter
	suppressed *obs.Counter
	rollbacks  *obs.Counter
	bias       *obs.Gauge

	coldCancelled   *obs.Counter
	deadlineExpired *obs.Counter
	deadlineShed    *obs.Counter
	hedges          *obs.Counter
	hedgeWins       *obs.Counter
	hedgeWasted     *obs.Counter
}

func newAppMetrics(reg *obs.Registry) appMetrics {
	return appMetrics{
		requests:  reg.Counter("chiron_serve_requests_total", "invocations accepted by the gateway"),
		errors:    reg.Counter("chiron_serve_errors_total", "invocations that failed during execution"),
		rejected:  reg.Counter("chiron_serve_rejected_total", "invocations rejected by admission control (HTTP 429)"),
		inflight:  reg.Gauge("chiron_serve_inflight", "invocations currently executing"),
		queued:    reg.Gauge("chiron_serve_queue_depth", "invocations waiting in the admission queue"),
		latency:   reg.Histogram("chiron_serve_latency", "end-to-end served latency (nominal seconds: queue wait + cold start + execution)", nil),
		queueWait: reg.Histogram("chiron_serve_queue_wait", "admission queue wait (nominal seconds)", nil),
		cold:      reg.Counter("chiron_serve_coldstarts_total", "sandbox instances booted cold"),
		warmHits:  reg.Counter("chiron_serve_warmhits_total", "invocations served by a warm instance"),
		warmGauge: reg.Gauge("chiron_serve_warm_instances", "idle warm instances resident across active plans"),
		resident:  reg.Gauge("chiron_serve_resident_mb", "resident memory of live sandbox instances (MB, sandbox ledger pricing)"),
		replans:   reg.Counter("chiron_serve_replans_total", "plan swaps triggered by the adaptive controller"),
		suppressed: reg.Counter("chiron_serve_replans_suppressed_total",
			"re-plan triggers swallowed by hysteresis (cooldown or the min-improvement gate)"),
		rollbacks: reg.Counter("chiron_serve_rollbacks_total",
			"plan epochs restored by rollback (operator endpoint or post-swap regression)"),
		bias: reg.Gauge("chiron_adapt_bias",
			"calibrated observed/predicted latency ratio x1000 (most recently updated controller)"),
		coldCancelled: reg.Counter("chiron_serve_cold_cancelled_total",
			"cold boots cancelled mid-boot (counted in coldstarts_total but never served)"),
		deadlineExpired: reg.Counter("chiron_serve_deadline_expired_total",
			"requests rejected at admission because their deadline had already passed"),
		deadlineShed: reg.Counter("chiron_serve_deadline_shed_total",
			"queued requests shed at grant time because their deadline passed while waiting"),
		hedges: reg.Counter("chiron_serve_hedges_total",
			"hedge attempts issued (request ran past the hedge quantile and a second instance was leased)"),
		hedgeWins: reg.Counter("chiron_serve_hedge_wins_total",
			"hedged requests where the re-issued attempt finished first"),
		hedgeWasted: reg.Counter("chiron_serve_hedge_wasted_total",
			"hedged requests where the primary finished first (the hedge was duplicate work)"),
	}
}

// App is the serving plane: registered workflows, their active plans and
// pools, and the shared admission/adaptation machinery.
type App struct {
	opt Options
	m   appMetrics

	mu  sync.RWMutex
	wfs map[string]*workflowState

	// byHash is a copy-on-write index from HashName(workflow) to its
	// state, rebuilt on Register under mu. The binary UDP ingress reads
	// it lock-free on every packet (workflows are named by hash on the
	// wire), so a packet flood never touches the registry lock.
	byHash atomic.Pointer[map[uint64]*workflowState]

	resMu    sync.Mutex
	results  map[string]*asyncResult
	resOrder []string
	resSeq   uint64

	// drainMu guards the drain state: once draining, track() refuses new
	// work and drained is closed when the last in-flight unit releases.
	// (A WaitGroup cannot express this — Add concurrent with Wait races.)
	drainMu  sync.Mutex
	inflight int
	draining bool
	drained  chan struct{}

	// invSeq hands out invocation ids for requests that arrive without
	// one (HTTP); the UDP plane reuses its wire header's client-chosen
	// id instead. hedgeInflight counts hedge attempts currently running
	// against Options.HedgeMaxInflight.
	invSeq        atomic.Uint64
	hedgeInflight atomic.Int64

	quit    chan struct{}
	reaperW sync.WaitGroup
}

// New builds an App and starts its keep-alive reaper.
func New(opt Options) *App {
	opt.defaults()
	a := &App{
		opt:     opt,
		m:       newAppMetrics(opt.Reg),
		wfs:     map[string]*workflowState{},
		results: map[string]*asyncResult{},
		drained: make(chan struct{}),
		quit:    make(chan struct{}),
	}
	a.reaperW.Add(1)
	go a.reaper()
	return a
}

// reaper evicts idle warm instances past their keep-alive.
func (a *App) reaper() {
	defer a.reaperW.Done()
	tick := a.opt.KeepAlive / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case now := <-t.C:
			a.mu.RLock()
			states := make([]*workflowState, 0, len(a.wfs))
			for _, wf := range a.wfs {
				states = append(states, wf)
			}
			a.mu.RUnlock()
			for _, wf := range states {
				if ps := wf.active.Load(); ps != nil {
					ps.pool.reap(now)
				}
			}
		}
	}
}

// Registry returns the metrics registry backing /metrics.
func (a *App) Registry() *obs.Registry { return a.opt.Reg }

// Flight returns the always-on flight recorder (never nil).
func (a *App) Flight() *flight.Flight { return a.opt.Flight }

// Draining reports whether a drain has begun; /readyz flips to 503 on
// it while /healthz (liveness) stays 200 until the process exits.
func (a *App) Draining() bool {
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	return a.draining
}

// Shutdown drains: new invocations are refused, in-flight ones (sync and
// async) finish, controllers and the reaper stop. It returns ctx.Err()
// if the context expires before the drain completes.
func (a *App) Shutdown(ctx context.Context) error {
	a.drainMu.Lock()
	already := a.draining
	a.draining = true
	if !already && a.inflight == 0 {
		close(a.drained)
	}
	a.drainMu.Unlock()
	if already {
		return nil
	}
	var err error
	select {
	case <-a.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	close(a.quit)
	a.reaperW.Wait()
	return err
}

// track registers one unit of in-flight work for the drain barrier.
func (a *App) track() (release func(), err error) {
	if err := a.trackOne(); err != nil {
		return nil, err
	}
	return a.untrack, nil
}

// trackOne is track without the bound release closure: the UDP fast
// path uses it because materializing the method value would allocate on
// every packet. Callers must pair it with exactly one untrack.
func (a *App) trackOne() error {
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	if a.draining {
		return ErrDraining
	}
	a.inflight++
	return nil
}

// untrack releases one unit; the last one out completes a pending drain.
func (a *App) untrack() {
	a.drainMu.Lock()
	a.inflight--
	if a.draining && a.inflight == 0 {
		close(a.drained)
	}
	a.drainMu.Unlock()
}

// ---- workflow registry ----

// workflowState is one registered workflow's serving state.
type workflowState struct {
	app  *App
	name string

	// behMu guards cur, the latest registered behaviour. It is distinct
	// from mu so the adapt Source can snapshot behaviour while a plan
	// (which holds mu) is in flight.
	behMu sync.Mutex
	cur   *dag.Workflow

	// mu serializes planning, rollback and the controller's
	// Observe/replan cycle. history holds the last K retired plan epochs
	// (most recent last) — the rollback targets.
	mu        sync.Mutex
	ctrl      *adapt.Controller
	planSLO   time.Duration
	history   []*planState
	rollbacks int

	active  atomic.Pointer[planState]
	version atomic.Int64

	// correctedNs is the bias-corrected predicted latency (nominal ns),
	// refreshed by the plan/rollback paths and the controller loop. The
	// hedging fast path reads it lock-free to compute the hedge delay.
	correctedNs atomic.Int64

	adm *admission

	obsCh   chan time.Duration
	obsOnce sync.Once
}

// planState is one immutable active-plan epoch: the plan, the behaviour
// snapshot it was built for, its predicted latency, and the warm pool
// bound to it. Swaps replace the whole value; retired epochs survive in
// workflowState.history so a rollback can restore them.
type planState struct {
	version   int64
	plan      *wrap.Plan
	workflow  *dag.Workflow
	predicted time.Duration
	pool      *warmPool
}

// snapshot returns the current behaviour (shared, read-only by contract:
// the executors never mutate specs).
func (wf *workflowState) snapshot() *dag.Workflow {
	wf.behMu.Lock()
	defer wf.behMu.Unlock()
	return wf.cur
}

// Register adds or updates a workflow's behaviour. Updating behaviour
// does not touch the active plan: requests immediately execute the new
// specs under the old placement, which is exactly the drift the adaptive
// controller watches for. It reports whether the workflow was new.
func (a *App) Register(w *dag.Workflow) (created bool, err error) {
	if err := w.Validate(); err != nil {
		return false, err
	}
	a.mu.Lock()
	wf, ok := a.wfs[w.Name]
	if !ok {
		wf = &workflowState{
			app:   a,
			name:  w.Name,
			obsCh: make(chan time.Duration, 256),
			adm:   newAdmission(a, a.opt.MaxConcurrency, a.opt.MaxQueue, a.opt.Scale),
		}
		a.wfs[w.Name] = wf
		a.rebuildHashIndexLocked()
	}
	a.mu.Unlock()
	wf.behMu.Lock()
	wf.cur = w
	wf.behMu.Unlock()
	return !ok, nil
}

// rebuildHashIndexLocked recomputes the copy-on-write hash index.
// Callers hold a.mu.
func (a *App) rebuildHashIndexLocked() {
	m := make(map[uint64]*workflowState, len(a.wfs))
	for n, wf := range a.wfs {
		m[HashName(n)] = wf
	}
	a.byHash.Store(&m)
}

// RegisterBuiltin registers one of the builtin workloads by name: the
// paper's evaluation suite plus the extras (e.g. the TailHeavy hedging
// testbed).
func (a *App) RegisterBuiltin(name string) (created bool, err error) {
	for _, e := range workloads.Suite() {
		if e.Name == name {
			return a.Register(e.Workflow)
		}
	}
	for _, e := range workloads.Extras() {
		if e.Name == name {
			return a.Register(e.Workflow)
		}
	}
	return false, fmt.Errorf("serve: unknown builtin workload %q: %w", name, ErrNotFound)
}

// errUnknownWorkflow is AdmitHashID's canned reject for a hash that
// names no registered workflow: a static error, so the UDP plane's
// unknown-hash path does not allocate per packet.
var errUnknownWorkflow = fmt.Errorf("serve: unknown workflow: %w", ErrNotFound)

func (a *App) workflow(name string) (*workflowState, error) {
	a.mu.RLock()
	wf, ok := a.wfs[name]
	a.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: workflow %q: %w", name, ErrNotFound)
	}
	return wf, nil
}

// Workflows lists registered workflow names, sorted.
func (a *App) Workflows() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.wfs))
	for n := range a.wfs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- planning ----

// PlanInfo reports an activated plan.
type PlanInfo struct {
	Workflow  string
	Version   int64
	Predicted time.Duration
	SLO       time.Duration
	Plan      *wrap.Plan
}

// PlanWorkflow profiles the registered behaviour and activates a PGP
// plan. slo zero falls back to the workflow's SLO, then Options.SLO,
// then auto (2x the latency-optimal prediction). The first plan also
// starts the workflow's adaptive controller.
func (a *App) PlanWorkflow(name string, slo time.Duration) (*PlanInfo, error) {
	wf, err := a.workflow(name)
	if err != nil {
		return nil, err
	}
	release, err := a.track()
	if err != nil {
		return nil, err
	}
	defer release()

	wf.mu.Lock()
	defer wf.mu.Unlock()
	beh := wf.snapshot()
	if slo <= 0 {
		slo = beh.SLO
	}
	if slo <= 0 {
		slo = a.opt.SLO
	}
	if slo <= 0 {
		// Auto-SLO: serve under 2x the latency-optimal prediction.
		pred, err := a.latencyOptimalPrediction(beh)
		if err != nil {
			return nil, err
		}
		slo = 2 * pred
	}
	src := func() *dag.Workflow { return wf.snapshot() }
	ctrl, err := adapt.New(src, adapt.Options{
		Const:            a.opt.Const,
		SLO:              slo,
		Window:           a.opt.Window,
		ViolationTrigger: a.opt.ViolationTrigger,
		DriftTrigger:     a.opt.DriftTrigger,
		BiasAlpha:        a.opt.BiasAlpha,
		Cooldown:         a.opt.Cooldown,
		MinImprovement:   a.opt.MinImprovement,
		RollbackGuard:    a.opt.RollbackGuard,
		PGP:              a.opt.PGP,
	})
	if err != nil {
		return nil, err
	}
	wf.ctrl = ctrl
	wf.planSLO = slo
	ps := wf.swapLocked(ctrl)
	wf.adm.setSLO(slo)
	wf.adm.prime(ctrl.Predicted())
	wf.correctedNs.Store(int64(ctrl.Corrected()))
	wf.obsOnce.Do(func() { go wf.observe() })
	return &PlanInfo{
		Workflow:  name,
		Version:   ps.version,
		Predicted: ps.predicted,
		SLO:       slo,
		Plan:      ps.plan,
	}, nil
}

// RollbackPlan restores the workflow's most recently retired plan epoch
// (the ROADMAP rollback item): the adaptive controller adopts the prior
// plan without re-profiling and a fresh epoch is activated from it.
// Returns ErrNoPlan when the workflow was never planned and ErrNoHistory
// when there is nothing to fall back to.
func (a *App) RollbackPlan(name string) (*PlanInfo, error) {
	wf, err := a.workflow(name)
	if err != nil {
		return nil, err
	}
	release, err := a.track()
	if err != nil {
		return nil, err
	}
	defer release()

	wf.mu.Lock()
	defer wf.mu.Unlock()
	if wf.ctrl == nil {
		return nil, ErrNoPlan
	}
	ps, err := wf.rollbackLocked()
	if err != nil {
		return nil, err
	}
	return &PlanInfo{
		Workflow:  name,
		Version:   ps.version,
		Predicted: ps.predicted,
		SLO:       wf.planSLO,
		Plan:      ps.plan,
	}, nil
}

// latencyOptimalPrediction plans without an SLO just to price the
// workflow (the auto-SLO anchor).
func (a *App) latencyOptimalPrediction(w *dag.Workflow) (time.Duration, error) {
	set, err := profileWorkflow(w)
	if err != nil {
		return 0, err
	}
	p := a.opt.PGP
	p.Const = a.opt.Const
	p.SLO = 0
	res, err := pgp.Plan(w, set, p)
	if err != nil {
		return 0, err
	}
	return res.Predicted, nil
}

// swapLocked installs the controller's current plan as a new epoch and
// retires the previous one, keeping it in the rollback history (last K,
// most recent last). Callers hold wf.mu.
func (wf *workflowState) swapLocked(ctrl *adapt.Controller) *planState {
	a := wf.app
	v := wf.version.Add(1)
	ps := &planState{
		version:   v,
		plan:      ctrl.Plan(),
		workflow:  ctrl.Workflow(),
		predicted: ctrl.Predicted(),
		pool:      newWarmPool(a, ctrl.Plan(), ctrl.Workflow(), a.opt.KeepAlive, a.opt.Scale),
	}
	old := wf.active.Swap(ps)
	if old != nil {
		old.pool.retire()
		wf.history = append(wf.history, old)
		if n := len(wf.history); n > a.opt.PlanHistory {
			wf.history = append(wf.history[:0], wf.history[n-a.opt.PlanHistory:]...)
		}
	}
	return ps
}

// rollbackLocked restores the most recently retired plan epoch: the
// controller adopts its plan/behaviour/prediction and a fresh epoch
// (new version, new pool) is activated from it. The displaced epoch
// joins the history, so a second rollback is a redo. Callers hold
// wf.mu and must have a live controller.
func (wf *workflowState) rollbackLocked() (*planState, error) {
	n := len(wf.history)
	if n == 0 {
		return nil, fmt.Errorf("serve: workflow %q: %w", wf.name, ErrNoHistory)
	}
	prev := wf.history[n-1]
	if err := wf.ctrl.Adopt(prev.workflow, prev.plan, prev.predicted); err != nil {
		return nil, err
	}
	wf.history = wf.history[:n-1]
	ps := wf.swapLocked(wf.ctrl)
	wf.adm.prime(prev.predicted)
	wf.correctedNs.Store(int64(wf.ctrl.Corrected()))
	wf.rollbacks++
	wf.app.m.rollbacks.Inc()
	return ps, nil
}

// observe is the workflow's background controller loop: it consumes
// served latencies and acts on the controller's decision — swapping the
// active plan on a re-plan, counting suppressed triggers, and rolling
// back to the prior epoch when the post-swap window regresses. One
// goroutine per workflow, started at first plan.
func (wf *workflowState) observe() {
	a := wf.app
	for {
		select {
		case <-a.quit:
			return
		case lat := <-wf.obsCh:
			wf.mu.Lock()
			ctrl := wf.ctrl
			if ctrl == nil {
				wf.mu.Unlock()
				continue
			}
			act, err := ctrl.Observe(lat)
			if err == nil {
				// Format the annotation only when something happened:
				// Observe runs per request and ActionNone is the common
				// case — an unconditional Sprintf here would put string
				// building on every request's tail.
				var detail string
				if act != adapt.ActionNone {
					win := ctrl.LastWindow()
					detail = fmt.Sprintf("mean=%v violations=%.2f drift=%.2f", win.Mean, win.Violations, win.Drift)
				}
				switch act {
				case adapt.ActionReplanned:
					wf.swapLocked(ctrl)
					wf.adm.prime(ctrl.Predicted())
					a.m.replans.Inc()
					a.opt.Flight.NoteEvent(wf.name, "replanned", detail, true)
				case adapt.ActionSuppressed:
					a.m.suppressed.Inc()
					a.opt.Flight.NoteEvent(wf.name, "suppressed", detail, true)
				case adapt.ActionRollback:
					// A rollback with no history (trimmed away) degrades
					// to keeping the regressed plan; the next trigger
					// will adapt again.
					_, _ = wf.rollbackLocked()
					a.opt.Flight.NoteEvent(wf.name, "rollback", detail, true)
				case adapt.ActionCalibrated:
					// Routine: annotate the timeline but do not retain
					// nearby traces — calibration closes every window.
					a.opt.Flight.NoteEvent(wf.name, "calibrated", detail, false)
				}
				a.m.bias.Set(int64(ctrl.Bias() * 1000))
				wf.correctedNs.Store(int64(ctrl.Corrected()))
			}
			wf.mu.Unlock()
		}
	}
}

// feed hands one served latency to the controller loop without ever
// blocking the request path (excess observations are dropped).
func (wf *workflowState) feed(lat time.Duration) {
	select {
	case wf.obsCh <- lat:
	default:
	}
}

// ---- status ----

// PoolStats is a point-in-time pool snapshot.
type PoolStats struct {
	Warm       int     `json:"warm"`
	Total      int     `json:"total"`
	ResidentMB float64 `json:"resident_mb"`
}

// Status describes one workflow's serving state.
type Status struct {
	Name        string    `json:"name"`
	Stages      int       `json:"stages"`
	Functions   int       `json:"functions"`
	Planned     bool      `json:"planned"`
	PlanVersion int64     `json:"plan_version,omitempty"`
	PredictedMs float64   `json:"predicted_ms,omitempty"`
	SLOMs       float64   `json:"slo_ms,omitempty"`
	Replans     int       `json:"replans"`
	Suppressed  int       `json:"suppressed_replans"`
	Rollbacks   int       `json:"rollbacks"`
	Bias        float64   `json:"bias,omitempty"`
	History     []int64   `json:"plan_history,omitempty"`
	Pool        PoolStats `json:"pool"`
	QueueDepth  int       `json:"queue_depth"`
	QueueCap    int       `json:"queue_cap"`
}

// WorkflowStatus reports a registered workflow's serving state.
func (a *App) WorkflowStatus(name string) (*Status, error) {
	wf, err := a.workflow(name)
	if err != nil {
		return nil, err
	}
	beh := wf.snapshot()
	st := &Status{
		Name:       name,
		Stages:     len(beh.Stages),
		Functions:  beh.NumFunctions(),
		QueueDepth: wf.adm.depth(),
		QueueCap:   wf.adm.maxQueue,
	}
	wf.mu.Lock()
	if wf.ctrl != nil {
		st.Replans = wf.ctrl.Replans()
		st.Suppressed = wf.ctrl.Suppressed()
		st.Bias = wf.ctrl.Bias()
		st.SLOMs = ms(wf.planSLO)
	}
	st.Rollbacks = wf.rollbacks
	for _, h := range wf.history {
		st.History = append(st.History, h.version)
	}
	wf.mu.Unlock()
	if ps := wf.active.Load(); ps != nil {
		st.Planned = true
		st.PlanVersion = ps.version
		st.PredictedMs = ms(ps.predicted)
		st.Pool = ps.pool.stats()
	}
	return st, nil
}

// ActivePlan returns the current plan epoch (plan + metadata), or
// ErrNoPlan.
func (a *App) ActivePlan(name string) (*PlanInfo, error) {
	wf, err := a.workflow(name)
	if err != nil {
		return nil, err
	}
	ps := wf.active.Load()
	if ps == nil {
		return nil, ErrNoPlan
	}
	wf.mu.Lock()
	slo := wf.planSLO
	wf.mu.Unlock()
	return &PlanInfo{
		Workflow:  name,
		Version:   ps.version,
		Predicted: ps.predicted,
		SLO:       slo,
		Plan:      ps.plan,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
