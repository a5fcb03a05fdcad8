// Package engine is the ground-truth executor: it runs one workflow
// request under a deployment plan and environment and reports what
// actually happened, stage by stage and function by function.
//
// Where the Predictor (package predict) applies the paper's clean
// white-box model, the engine layers on the effects real deployments
// exhibit: seeded startup jitter, per-syscall overhead, orchestrator
// hand-off lag, serialized gateway dispatch, Step Functions' windowed
// state scheduling, and remote-storage hops for intermediate data. All of
// it is deterministic for a given seed, so experiments and tests are
// stable while the predictor-vs-engine gap stays honest (Figure 12).
package engine

import (
	"fmt"
	"sync"
	"time"

	"chiron/internal/dag"
	"chiron/internal/gil"
	"chiron/internal/model"
	"chiron/internal/netsim"
	"chiron/internal/obs"
	"chiron/internal/parallel"
	"chiron/internal/proc"
	"chiron/internal/sim"
	"chiron/internal/wrap"
)

// DispatchKind selects the per-stage function dispatch model.
type DispatchKind int

const (
	// DispatchNone: functions are invoked by the wrap orchestrators
	// themselves (many-to-one and m-to-n systems); only cross-wrap
	// invocation costs apply.
	DispatchNone DispatchKind = iota
	// DispatchGateway: the local OpenFaaS gateway serially dispatches
	// every function of a stage (one-to-one on the local cluster).
	DispatchGateway
	// DispatchASF: AWS Step Functions' state scheduler — ~150 ms per
	// state with a 10-wide window plus serialized control-plane cost
	// (Figure 3).
	DispatchASF
)

// BoundaryKind selects how intermediate data crosses stage boundaries.
type BoundaryKind int

const (
	// BoundaryShared: successor stages read predecessors' output from
	// sandbox-shared memory or over the wrap invocation itself; no extra
	// hop (many-to-one, m-to-n).
	BoundaryShared BoundaryKind = iota
	// BoundaryStore: producers upload to a remote object store and
	// consumers download (one-to-one; Figure 4's cost).
	BoundaryStore
)

// Env is the execution environment.
type Env struct {
	// Const is the calibrated substrate timing.
	Const model.Constants
	// Dispatch selects the function dispatch model.
	Dispatch DispatchKind
	// Boundary selects the inter-stage data path.
	Boundary BoundaryKind
	// Store prices BoundaryStore hops (e.g. netsim.AWSS3, LocalMinIO).
	Store netsim.Profile
	// ColdStart charges each sandbox's container boot on the critical
	// path of the stage where it first runs (off = pre-warmed, the
	// paper's measurement mode).
	ColdStart bool
	// Fidelity enables engine-grade imperfections (jitter, syscall
	// overhead, hand-off lag). Experiments leave it on; turning it off
	// reduces the engine to the predictor's idealized model.
	Fidelity bool
	// Seed drives all deterministic jitter.
	Seed int64
	// Record keeps per-function timeline slices (Figure 5).
	Record bool
	// Rec, when non-nil, receives the request's span tree and instant
	// events (package obs): request → stage → wrap → function spans plus
	// fork, GIL, cold-start, IPC/RPC and boundary events, all stamped
	// from the virtual clock. Tracing implies slice recording internally;
	// a nil Rec costs the hot path a single nil-check.
	Rec obs.Recorder
}

// FunctionTiming is one function's absolute schedule within the request.
type FunctionTiming struct {
	Name    string
	Stage   int
	Sandbox int
	// Start is when the function's thread/process existed and could run.
	Start time.Duration
	// Finish is when it completed (request-relative; Figure 15's CDF
	// metric).
	Finish time.Duration
	// Slices is the recorded timeline, request-relative (Env.Record).
	Slices []gil.Slice
}

// WrapResult is one wrap's execution within one stage.
type WrapResult struct {
	Sandbox int
	// InvokedAt is when the orchestrator issued this wrap's invocation.
	InvokedAt time.Duration
	// Done is when the wrap's result was back at the orchestrator.
	Done time.Duration
	// Cold is the container-boot cost this wrap paid (zero when warm).
	Cold time.Duration
	// RPC is the response hand-back cost for remote wraps (zero for the
	// local wrap and platform-dispatched sandboxes).
	RPC time.Duration
	// Exec is the wrap-internal execution detail.
	Exec *proc.Result
}

// StageResult is one stage's execution.
type StageResult struct {
	// Start and End bound the stage on the request timeline.
	Start, End time.Duration
	// Sched is the stage's scheduling/dispatch share: time until the
	// last function had been handed to an executor (Figure 3's metric).
	Sched time.Duration
	// Boundary is the inter-stage data cost paid after this stage.
	Boundary time.Duration
	// Wraps details each participating wrap.
	Wraps []WrapResult
}

// Result is one request's ground truth.
type Result struct {
	// E2E is the end-to-end latency.
	E2E time.Duration
	// Stages in order.
	Stages []StageResult
	// Functions across all stages, stage-major.
	Functions []FunctionTiming
}

// SchedTotal sums the per-stage scheduling shares.
func (r *Result) SchedTotal() time.Duration {
	var d time.Duration
	for _, s := range r.Stages {
		d += s.Sched
	}
	return d
}

// Run executes one request of workflow w deployed per plan under env.
func Run(w *dag.Workflow, plan *wrap.Plan, env Env) (*Result, error) {
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	rng := rngPool.Get().(*sim.Rand)
	rng.Seed(env.Seed)
	r := &runner{w: w, plan: plan, env: env, rng: rng}
	res, err := r.run()
	rngPool.Put(rng)
	return res, err
}

// rngPool recycles the per-request jitter streams: a Rand carries a
// 4.9 KB register, and RunMany fans thousands of requests out per table.
var rngPool = sync.Pool{New: func() any { return new(sim.Rand) }}

type runner struct {
	w    *dag.Workflow
	plan *wrap.Plan
	env  Env
	rng  *sim.Rand

	coldPaid map[int]bool
}

func (r *runner) jitter(d time.Duration) time.Duration {
	if !r.env.Fidelity || d <= 0 {
		return d
	}
	u := r.rng.Float64()*2 - 1
	out := time.Duration(float64(d) * (1 + r.env.Const.StartupJitterPct*u))
	if out < 0 {
		out = 0
	}
	return out
}

func (r *runner) run() (*Result, error) {
	res := &Result{Stages: make([]StageResult, 0, len(r.w.Stages))}
	r.coldPaid = make(map[int]bool)
	// Per-request correlated load factor: co-located tenants, cache state
	// and frequency scaling move a whole request's costs together, which
	// is what makes real deployments miss SLOs (Figure 14). Independent
	// per-operation jitter alone would average out over wide stages.
	load := 1.0
	if r.env.Fidelity {
		load = 1 + 0.05*(r.rng.Float64()*2-1)
	}
	t := time.Duration(0)
	for i := range r.w.Stages {
		stage, err := r.runStage(i, t)
		if err != nil {
			return nil, err
		}
		t = stage.End + stage.Boundary
		res.Stages = append(res.Stages, *stage)
	}
	res.E2E = time.Duration(float64(t) * load)
	nfn := 0
	for _, st := range res.Stages {
		for _, wr := range st.Wraps {
			nfn += len(wr.Exec.Functions)
		}
	}
	res.Functions = make([]FunctionTiming, 0, nfn)
	for si, st := range res.Stages {
		for _, wr := range st.Wraps {
			base := wr.InvokedAt
			for _, ft := range wr.Exec.Functions {
				out := FunctionTiming{
					Name:    ft.Name,
					Stage:   si,
					Sandbox: wr.Sandbox,
					Start:   base + ft.SpawnedAt,
					Finish:  base + ft.Finish,
				}
				if r.env.Record {
					out.Slices = make([]gil.Slice, len(ft.Slices))
					for k, sl := range ft.Slices {
						out.Slices[k] = gil.Slice{From: base + sl.From, To: base + sl.To, Kind: sl.Kind}
					}
				}
				res.Functions = append(res.Functions, out)
			}
		}
	}
	if r.env.Rec != nil {
		r.emitTrace(res)
	}
	return res, nil
}

// runStage executes stage i beginning at absolute time t0.
func (r *runner) runStage(i int, t0 time.Duration) (*StageResult, error) {
	wraps, err := r.plan.StageWraps(r.w, i)
	if err != nil {
		return nil, err
	}
	st := &StageResult{Start: t0, Wraps: make([]WrapResult, 0, len(wraps))}
	c := r.env.Const

	switch r.env.Dispatch {
	case DispatchGateway, DispatchASF:
		// One-to-one: every wrap is one sandbox the platform scheduler
		// dispatches to individually, at a per-dispatch start offset.
		end := t0
		for idx, sw := range wraps {
			offset := r.dispatchOffset(idx)
			invokeAt := t0 + offset
			if offset > st.Sched {
				st.Sched = offset
			}
			exec := r.execWrap(sw, i)
			cold := r.coldStart(sw.Sandbox)
			done := invokeAt + cold + exec.Total
			st.Wraps = append(st.Wraps, WrapResult{
				Sandbox:   sw.Sandbox,
				InvokedAt: invokeAt + cold,
				Done:      done,
				Cold:      cold,
				Exec:      exec,
			})
			if done > end {
				end = done
			}
		}
		st.End = end

	default:
		// Wrap orchestration per Eq. 2: the local wrap (sandbox 0) runs
		// in place; remote wraps are invoked serially at T_INV strides
		// and answer after T_RPC.
		end := t0
		remoteRank := 0
		for _, sw := range wraps {
			exec := r.execWrap(sw, i)
			cold := r.coldStart(sw.Sandbox)
			var invokeAt, done, rpc time.Duration
			if sw.Sandbox == 0 {
				invokeAt = t0
				done = t0 + cold + exec.Total
			} else {
				remoteRank++
				inv := r.jitter(time.Duration(remoteRank) * c.InvokeCost)
				rpc = r.jitter(c.RPCCost)
				invokeAt = t0 + inv
				done = invokeAt + cold + exec.Total + rpc
				if inv+rpc > st.Sched {
					st.Sched = inv + rpc
				}
			}
			st.Wraps = append(st.Wraps, WrapResult{Sandbox: sw.Sandbox, InvokedAt: invokeAt, Done: done, Cold: cold, RPC: rpc, Exec: exec})
			if done > end {
				end = done
			}
		}
		st.End = end
	}

	if r.env.Boundary == BoundaryStore && i < len(r.w.Stages)-1 {
		var maxOut int64
		for _, fn := range r.w.Stages[i].Functions {
			if fn.OutputBytes > maxOut {
				maxOut = fn.OutputBytes
			}
		}
		// Producer upload + consumer download on the critical path.
		st.Boundary = r.jitter(r.env.Store.Transfer(maxOut)) + r.jitter(r.env.Store.Transfer(maxOut))
	}
	return st, nil
}

// dispatchOffset returns function idx's start offset under the platform
// scheduler.
func (r *runner) dispatchOffset(idx int) time.Duration {
	c := r.env.Const
	switch r.env.Dispatch {
	case DispatchASF:
		// Dispatch rounds of ASFConcurrency states, each round costing
		// one scheduling latency, plus serialized control-plane work
		// (fits Figure 3: 150 ms / 874 ms / 1628 ms at 5/25/50).
		round := idx / c.ASFConcurrency
		base := time.Duration(round+1) * c.ASFSchedPerFn
		ctl := time.Duration(idx+1) * c.ASFControlPerFn
		return r.jitter(base + ctl)
	case DispatchGateway:
		return r.jitter(time.Duration(idx) * c.GatewaySchedPerFn)
	default:
		return 0
	}
}

// coldStart charges the container boot the first time a sandbox runs.
func (r *runner) coldStart(sandboxIdx int) time.Duration {
	if !r.env.ColdStart || r.coldPaid[sandboxIdx] {
		return 0
	}
	r.coldPaid[sandboxIdx] = true
	return r.jitter(r.env.Const.ColdStart)
}

// execWrap runs one wrap's processes through the execution substrate.
func (r *runner) execWrap(sw wrap.StageWrap, stage int) *proc.Result {
	opt := proc.Options{
		Const:        r.env.Const,
		CPUs:         sw.Cfg.CPUs,
		Pool:         sw.Cfg.Pool,
		Workers:      sw.Cfg.Workers,
		LongestFirst: sw.Cfg.LongestFirst,
		MainResident: sw.HasMainProc() && !sw.Cfg.ForkPerRequest,
		Fidelity:     r.env.Fidelity,
		Seed:         r.env.Seed + int64(stage)*31337 + int64(sw.Sandbox)*977,
		// Tracing needs the per-thread slice timelines to derive GIL
		// events; recording never changes simulated timings.
		Record: r.env.Record || r.env.Rec != nil,
	}
	switch sw.Cfg.Iso {
	case wrap.IsoMPK:
		opt.Iso = proc.MPK(r.env.Const)
	case wrap.IsoSFI:
		opt.Iso = proc.SFI(r.env.Const)
	}
	// A wrap's processes within one stage cannot exceed its cpuset when
	// they host threads; package proc validates. For single-thread
	// processes the cpuset bounds concurrency naturally.
	procs := sw.Processes()
	if opt.CPUs == 0 {
		opt.CPUs = len(procs)
	}
	return proc.Run(procs, opt)
}

// RunMany executes n requests with distinct seeds and returns their
// end-to-end latencies (the sampling behind Figures 14 and 15).
//
// Requests are independent seeded computations, so they fan out across the
// parallel worker pool; each task builds its own runner state (and its own
// event kernels underneath) and latencies are collected in request order,
// making the output bit-for-bit identical at every worker count. The
// per-request seed stream (base + i*65537) is a documented contract: every
// recorded table in EXPERIMENTS.md was sampled from it.
func RunMany(w *dag.Workflow, plan *wrap.Plan, env Env, n int) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: non-positive request count %d", n)
	}
	// Validate once up front instead of once per fanned-out request.
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	return parallel.Map(n, func(i int) (time.Duration, error) {
		e := env
		e.Seed = env.Seed + int64(i)*65537
		res, err := Run(w, plan, e)
		if err != nil {
			return 0, err
		}
		return res.E2E, nil
	})
}
