// Package live executes a deployment plan with real goroutines on the
// wall clock — the in-process equivalent of deploying the generated
// orchestrators (package deploy) onto a worker.
//
// Where package engine *models* a request on virtual time, live *runs*
// one: every process group is a goroutine tree, threads of a
// pseudo-parallel runtime contend on a real token-passing GIL (held for
// CPU spans, released on blocking spans and at every switch interval),
// forks are serialized by the orchestrator exactly like Observation 2's
// block time, pools are worker goroutines fed from a channel, and
// functions can be bound to real Go code that reads and writes a real
// in-memory store. Wall-clock scheduling noise makes results
// non-deterministic — that is the point; tests assert envelopes, not
// equalities.
//
// Modelled time is paced against due times rather than slept relatively.
// Every goroutine chain (a stage's wrap, the orchestrator's fork loop, a
// forked process, a process main, a function thread, a pool worker)
// carries the wall-clock instant its schedule says it should have
// reached; a modelled sleep advances that instant and parks only while
// the wall clock is still short of it. Sub-microsecond sleeps at small
// Scale therefore cost a clock read, not a timer, and a chain's wall time
// is never below its modelled schedule. A child chain starts from its
// parent's due time. Every handoff between chains carries the sender's
// due time (the GIL token and a cpuset slot carry their releaser's, a
// pool task its dispatcher's, a join its latest child's), and the
// receiver moves its own due time up to it, so a chain waits as long as
// the schedule says and never inherits another chain's timer overshoot.
package live

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/storage"
	"chiron/internal/wrap"
)

// Ctx is handed to bound functions: access to the shared intermediate
// store and the function's own spec.
type Ctx struct {
	// Store is the request's intermediate-data store (shared memory /
	// MinIO stand-in).
	Store *storage.MemStore
	// Spec is the function being executed.
	Spec *behavior.Spec
	// Context carries cancellation.
	Context context.Context
}

// Fn is user code bound to a function name. When bound, the function's
// live duration is whatever the code takes (plus GIL contention); when
// not bound, the runtime replays the spec's segments.
type Fn func(*Ctx) error

// Options configure a live run.
type Options struct {
	// Const supplies block/startup/IPC/RPC costs.
	Const model.Constants
	// Scale multiplies every modelled duration before sleeping: 0.25
	// runs four times faster than nominal; reported timings are scaled
	// back. Zero means 1.0. Bound functions are never scaled.
	Scale float64
	// Bindings maps function names to real code.
	Bindings map[string]Fn
	// Timeout aborts the request (default 30s wall time).
	Timeout time.Duration
	// Rec, when non-nil, receives wall-clock spans and instant events
	// (package obs): request/stage/wrap/function spans plus fork, GIL
	// token acquire/switch/release and IPC/RPC events, stamped in
	// nominal time (wall divided by Scale). Live traces are envelopes,
	// not byte-stable artifacts.
	Rec obs.Recorder
}

func (o *Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// FnTiming is one function's measured schedule (nominal time: wall time
// divided by Scale).
type FnTiming struct {
	Name    string
	Stage   int
	Sandbox int
	Start   time.Duration
	Finish  time.Duration
}

// Result is one live request.
type Result struct {
	// E2E is the nominal end-to-end latency.
	E2E time.Duration
	// Functions in completion order.
	Functions []FnTiming
	// Store is the final intermediate-data store (bound functions'
	// outputs survive here).
	Store *storage.MemStore
}

// Run executes one request of w under plan.
func Run(w *dag.Workflow, plan *wrap.Plan, opt Options) (*Result, error) {
	return RunCtx(context.Background(), w, plan, opt)
}

// RunCtx executes one request of w under plan, honouring the parent
// context: cancelling parent aborts the request between (and inside)
// segments, and a parent deadline acts exactly like Options.Timeout. The
// gateway (internal/serve) uses this to enforce per-request deadlines and
// to drain cleanly on shutdown. When both a parent deadline and
// Options.Timeout are set, the earlier one wins; when neither is set the
// 30s default backstop applies.
func RunCtx(parent context.Context, w *dag.Workflow, plan *wrap.Plan, opt Options) (*Result, error) {
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	if opt.Timeout <= 0 {
		if _, hasDeadline := parent.Deadline(); !hasDeadline {
			opt.Timeout = 30 * time.Second
		}
	}
	var cancel context.CancelFunc
	ctx := parent
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()

	r := &runner{
		opt:     opt,
		ctx:     ctx,
		store:   storage.NewMem(),
		t0:      time.Now(),
		tids:    map[int]int{},
		verbose: obs.IsVerbose(opt.Rec),
	}
	due := r.t0
	for si := range w.Stages {
		wraps, err := plan.StageWraps(w, si)
		if err != nil {
			return nil, err
		}
		if err := r.runStage(si, wraps, &due); err != nil {
			return nil, err
		}
	}
	res := &Result{
		E2E:       r.nominalSince(r.t0),
		Functions: r.timings,
		Store:     r.store,
	}
	if rec := r.opt.Rec; rec != nil {
		if tr, ok := rec.(obs.Namer); ok {
			tr.NameProcess(0, "request")
		}
		// Span args are verbose-only: they duplicate what the track
		// layout and span names already say, and each Args literal is
		// an allocation the always-on flight path shouldn't pay.
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("workflow", w.Name), obs.A("stages", len(w.Stages))}
		}
		rec.RecordSpan(obs.Span{
			PID: 0, TID: 0, Name: "request " + w.Name, Cat: obs.CatRequest,
			Start: 0, End: res.E2E,
			Args: args,
		})
	}
	return res, nil
}

type runner struct {
	opt     Options
	ctx     context.Context
	store   *storage.MemStore
	t0      time.Time
	verbose bool // recorder wants per-quantum GIL instants

	mu      sync.Mutex
	timings []FnTiming
	runErr  error
	tids    map[int]int // per-sandbox function-row allocator (tracing)
}

// Track-name tables: stage/wrap/sandbox indices are single digits in
// practice, and these names are emitted on every request now that the
// flight recorder is always on — precompute them instead of paying a
// fmt.Sprintf per span.
const smallTrack = 32

var (
	stageNames   [smallTrack]string
	wrapNames    [smallTrack]string
	sandboxNames [smallTrack]string
)

func init() {
	for i := 0; i < smallTrack; i++ {
		stageNames[i] = fmt.Sprintf("stage %d", i)
		wrapNames[i] = fmt.Sprintf("s%d.wrap", i)
		sandboxNames[i] = fmt.Sprintf("sandbox %d", i)
	}
}

func stageName(i int) string {
	if 0 <= i && i < smallTrack {
		return stageNames[i]
	}
	return fmt.Sprintf("stage %d", i)
}

func wrapName(i int) string {
	if 0 <= i && i < smallTrack {
		return wrapNames[i]
	}
	return fmt.Sprintf("s%d.wrap", i)
}

func sandboxName(i int) string {
	if 0 <= i && i < smallTrack {
		return sandboxNames[i]
	}
	return fmt.Sprintf("sandbox %d", i)
}

// nextTID hands out the next function thread row for a sandbox's
// pseudo-process (TID 0 is the wrap orchestrator row).
func (r *runner) nextTID(sandbox int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tids[sandbox]++
	return r.tids[sandbox]
}

// instant emits a point event at the current nominal time.
func (r *runner) instant(pid, tid int, name, cat string, args ...obs.Arg) {
	if r.opt.Rec == nil {
		return
	}
	r.opt.Rec.RecordInstant(obs.Instant{
		PID: pid, TID: tid, Name: name, Cat: cat,
		At: r.nominalSince(r.t0), Args: args,
	})
}

// nominalSince converts a wall-clock span back to nominal time.
func (r *runner) nominalSince(from time.Time) time.Duration {
	return time.Duration(float64(time.Since(from)) / r.opt.scale())
}

// sleep advances the chain's due time by d nominal time (scaled).
func (r *runner) sleep(due *time.Time, d time.Duration) {
	r.sleepWall(due, time.Duration(float64(d)*r.opt.scale()))
}

// sleepWall advances the chain's due time by a wall-clock duration
// (already scaled) and waits until the wall clock reaches it, honouring
// cancellation. When the wall clock is already past due there is no
// timer and no park.
func (r *runner) sleepWall(due *time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	*due = due.Add(d)
	wait := time.Until(*due)
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.ctx.Done():
	}
}

// resync moves a chain's due time up to now: bound code runs on the
// wall clock, outside the modelled schedule.
func resync(due *time.Time) {
	if now := time.Now(); now.After(*due) {
		*due = now
	}
}

// join waits for a set of child chains and carries the latest of their
// due times back to the parent chain.
type join struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	due time.Time
}

// done reports one child chain's final due time.
func (j *join) done(due time.Time) {
	j.mu.Lock()
	if due.After(j.due) {
		j.due = due
	}
	j.mu.Unlock()
	j.wg.Done()
}

// wait blocks until every child is done and moves due up to the latest
// child's.
func (j *join) wait(due *time.Time) {
	j.wg.Wait()
	if j.due.After(*due) {
		*due = j.due
	}
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.mu.Unlock()
}

func (r *runner) record(t FnTiming) {
	r.mu.Lock()
	r.timings = append(r.timings, t)
	r.mu.Unlock()
}

// runStage executes one stage: the local wrap in place, remote wraps with
// invocation stride and RPC cost, all joined at a barrier (stages are
// strictly ordered). due is the request chain's; each wrap goroutine
// starts from it.
func (r *runner) runStage(si int, wraps []wrap.StageWrap, due *time.Time) error {
	stageStart := r.nominalSince(r.t0)
	var j join
	remoteRank := 0
	for i := range wraps {
		sw := wraps[i]
		delay := time.Duration(0)
		rpc := time.Duration(0)
		if sw.Sandbox != 0 {
			remoteRank++
			delay = time.Duration(remoteRank) * r.opt.Const.InvokeCost
			rpc = r.opt.Const.RPCCost
		}
		j.wg.Add(1)
		go func(due time.Time) {
			r.sleep(&due, delay)
			r.runWrap(si, sw, &due)
			if rpc > 0 {
				from := r.nominalSince(r.t0)
				r.sleep(&due, rpc)
				if rec := r.opt.Rec; rec != nil {
					rec.RecordSpan(obs.Span{
						PID: sw.Sandbox + 1, TID: 0, Name: "rpc", Cat: obs.CatRPC,
						Start: from, End: r.nominalSince(r.t0),
					})
				}
			}
			j.done(due)
		}(*due)
	}
	j.wait(due)
	if rec := r.opt.Rec; rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("wraps", len(wraps))}
		}
		rec.RecordSpan(obs.Span{
			PID: 0, TID: 0, Name: stageName(si), Cat: obs.CatStage,
			Start: stageStart, End: r.nominalSince(r.t0),
			Args: args,
		})
	}
	select {
	case <-r.ctx.Done():
		return fmt.Errorf("live: request aborted in stage %d: %w", si, context.Cause(r.ctx))
	default:
	}
	r.mu.Lock()
	err := r.runErr
	r.mu.Unlock()
	return err
}

// runWrap executes one wrap's process groups: the resident main group
// immediately, forked groups serialized by block time; results gathered
// over pipes (modelled as a final sleep). due is the wrap orchestrator's
// chain; every process starts from it at its fork.
func (r *runner) runWrap(si int, sw wrap.StageWrap, due *time.Time) {
	pid := sw.Sandbox + 1
	if tr, ok := r.opt.Rec.(obs.Namer); ok {
		tr.NameProcess(pid, sandboxName(sw.Sandbox))
	}
	wrapStart := r.nominalSince(r.t0)
	if sw.Cfg.Pool {
		r.runPool(si, sw, due)
		r.emitWrapSpan(si, pid, wrapStart)
		return
	}
	var j join
	for _, g := range sw.Procs {
		resident := g.Proc == 0 && !sw.Cfg.ForkPerRequest
		if !resident {
			// The orchestrator issues this fork, then blocks the next
			// one (Observation 2's sequential forking).
			r.instant(pid, 0, "fork", obs.CatFork, obs.A("proc", g.Proc))
			j.wg.Add(1)
			go func(due time.Time) {
				r.sleep(&due, r.opt.Const.ProcStartup)
				r.runProcess(si, sw, g, &due)
				j.done(due)
			}(*due)
			r.sleep(due, r.opt.Const.ProcBlockStep)
			continue
		}
		j.wg.Add(1)
		go func(due time.Time) {
			r.runProcess(si, sw, g, &due)
			j.done(due)
		}(*due)
	}
	j.wait(due)
	if n := len(sw.Procs); n > 1 {
		from := r.nominalSince(r.t0)
		r.sleep(due, time.Duration(n-1)*r.opt.Const.IPCCost)
		if rec := r.opt.Rec; rec != nil {
			rec.RecordSpan(obs.Span{
				PID: pid, TID: 0, Name: "ipc", Cat: obs.CatIPC,
				Start: from, End: r.nominalSince(r.t0),
			})
		}
	}
	r.emitWrapSpan(si, pid, wrapStart)
}

// emitWrapSpan closes the wrap's orchestrator-row span.
func (r *runner) emitWrapSpan(si, pid int, from time.Duration) {
	if rec := r.opt.Rec; rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("stage", si), obs.A("sandbox", pid-1)}
		}
		rec.RecordSpan(obs.Span{
			PID: pid, TID: 0, Name: wrapName(si), Cat: obs.CatWrap,
			Start: from, End: r.nominalSince(r.t0),
			Args: args,
		})
	}
}

// runProcess executes one process's functions as threads sharing a GIL
// (for pseudo-parallel runtimes) or truly in parallel (GIL-free). due is
// the process main's chain, which clones the threads serially and ends
// at the latest thread's due time.
func (r *runner) runProcess(si int, sw wrap.StageWrap, g wrap.ProcGroup, due *time.Time) {
	if len(g.Functions) == 0 {
		return
	}
	var lock *gilLock
	if g.Functions[0].Runtime.PseudoParallel() {
		lock = newGIL(time.Duration(float64(r.opt.Const.GILInterval) * r.opt.scale()))
	}
	var j join
	for _, fn := range g.Functions {
		// Thread clone cost, paid serially by the process main.
		if len(g.Functions) > 1 || g.Proc == 0 {
			r.sleep(due, r.opt.Const.ThreadStartup)
		}
		j.wg.Add(1)
		go r.thread(si, sw.Sandbox, fn, lock, &j, *due)
	}
	j.wait(due)
}

// thread runs one function thread from its spawn-time due and reports
// its final due time to j. (A method call rather than a closure: one
// allocation per thread, not two.)
func (r *runner) thread(si, sandbox int, fn *behavior.Spec, lock *gilLock, j *join, due time.Time) {
	r.runFunction(si, sandbox, fn, lock, &due)
	j.done(due)
}

// poolTask is one dispatched function and the dispatcher's due time at
// its dispatch.
type poolTask struct {
	fn  *behavior.Spec
	due time.Time
}

// runPool executes the wrap's functions on a worker pool. due is the
// dispatcher's chain; every worker starts from it. The dispatcher pays
// its dispatch cost serially and never waits for a worker in modelled
// time; a task starts at the later of its dispatch and its worker's
// last finish.
func (r *runner) runPool(si int, sw wrap.StageWrap, due *time.Time) {
	var fns []*behavior.Spec
	for _, g := range sw.Procs {
		fns = append(fns, g.Functions...)
	}
	workers := sw.Cfg.Workers
	if workers <= 0 {
		workers = len(fns)
	}
	// CPU slots bound concurrent CPU spans; pool workers are GIL-free
	// processes.
	cpus := newCPUSet(max(sw.Cfg.CPUs, 1))
	tasks := make(chan poolTask)
	var j join
	for i := 0; i < workers; i++ {
		j.wg.Add(1)
		go func(due time.Time) {
			for t := range tasks {
				if t.due.After(due) {
					due = t.due
				}
				r.runFunctionOnCPUs(si, sw.Sandbox, t.fn, cpus, &due)
			}
			j.done(due)
		}(*due)
	}
	for _, fn := range fns {
		r.sleep(due, r.opt.Const.PoolDispatch)
		select {
		case tasks <- poolTask{fn: fn, due: *due}:
		case <-r.ctx.Done():
		}
	}
	close(tasks)
	j.wait(due)
}

// runFunction executes one function: bound code if present, spec replay
// otherwise, under the process GIL when one exists. due is the thread's
// chain.
func (r *runner) runFunction(si, sandbox int, fn *behavior.Spec, lock *gilLock, due *time.Time) {
	start := r.nominalSince(r.t0)
	pid := sandbox + 1
	tid := 0
	var gilEv func(string)
	if r.opt.Rec != nil {
		tid = r.nextTID(sandbox)
		// Per-quantum GIL handoff instants are verbose-only: the
		// always-on flight recorder pays for the coarse span tree, not
		// for hundreds of scheduler events per CPU segment.
		if r.verbose {
			gilEv = func(name string) { r.instant(pid, tid, name, obs.CatGIL) }
		}
	}
	if bound, ok := r.opt.Bindings[fn.Name]; ok {
		if lock != nil {
			lock.acquire(due)
			if gilEv != nil {
				gilEv(obs.GILAcquire)
			}
		}
		err := bound(&Ctx{Store: r.store, Spec: fn, Context: r.ctx})
		resync(due)
		if lock != nil {
			if gilEv != nil {
				gilEv(obs.GILRelease)
			}
			lock.release(*due)
		}
		if err != nil {
			r.fail(fmt.Errorf("live: function %s: %w", fn.Name, err))
		}
	} else {
		for _, seg := range fn.Segments {
			dur := segmentDur(seg)
			if seg.Kind.Blocking() || lock == nil {
				r.sleep(due, dur)
				continue
			}
			// CPU span: hold the GIL, yielding every switch interval.
			lock.run(r, due, time.Duration(float64(dur)*r.opt.scale()), gilEv)
		}
	}
	finish := r.nominalSince(r.t0)
	if rec := r.opt.Rec; rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("stage", si)}
		}
		rec.RecordSpan(obs.Span{
			PID: pid, TID: tid, Name: fn.Name, Cat: obs.CatFunction,
			Start: start, End: finish,
			Args: args,
		})
	}
	r.record(FnTiming{Name: fn.Name, Stage: si, Sandbox: sandbox, Start: start, Finish: finish})
}

// runFunctionOnCPUs executes a pool task: CPU spans occupy a cpu slot.
// due is the pool worker's chain.
func (r *runner) runFunctionOnCPUs(si, sandbox int, fn *behavior.Spec, cpus *cpuSet, due *time.Time) {
	start := r.nominalSince(r.t0)
	pid := sandbox + 1
	tid := 0
	if r.opt.Rec != nil {
		tid = r.nextTID(sandbox)
	}
	if bound, ok := r.opt.Bindings[fn.Name]; ok {
		cpus.acquire(due)
		err := bound(&Ctx{Store: r.store, Spec: fn, Context: r.ctx})
		resync(due)
		cpus.release(*due)
		if err != nil {
			r.fail(fmt.Errorf("live: function %s: %w", fn.Name, err))
		}
	} else {
		for _, seg := range fn.Segments {
			dur := segmentDur(seg)
			if seg.Kind.Blocking() {
				r.sleep(due, dur)
				continue
			}
			cpus.acquire(due)
			r.sleep(due, dur)
			cpus.release(*due)
		}
	}
	finish := r.nominalSince(r.t0)
	if rec := r.opt.Rec; rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("stage", si)}
		}
		rec.RecordSpan(obs.Span{
			PID: pid, TID: tid, Name: fn.Name, Cat: obs.CatFunction,
			Start: start, End: finish,
			Args: args,
		})
	}
	r.record(FnTiming{Name: fn.Name, Stage: si, Sandbox: sandbox, Start: start, Finish: finish})
}

// segmentDur samples one live execution's duration for a segment:
// Dur, plus the heavy tail with probability TailProb. Only the live
// executor rolls this dice — the engine, profiler and predictor always
// see Dur, so a tail is unmodeled straggler noise by construction.
func segmentDur(seg behavior.Segment) time.Duration {
	if seg.TailProb > 0 && seg.TailDur > 0 && rand.Float64() < seg.TailProb {
		return seg.Dur + seg.TailDur
	}
	return seg.Dur
}

// ---- GIL emulation ----

// gilLock is a token-passing global interpreter lock: one holder at a
// time; holders of long CPU spans yield at every switch interval so
// waiters interleave, exactly like Figure 2's timeout-triggered drop.
// The token carries its last releaser's due time.
type gilLock struct {
	token   chan time.Time
	quantum time.Duration
}

func newGIL(quantum time.Duration) *gilLock {
	g := &gilLock{token: make(chan time.Time, 1), quantum: quantum}
	g.token <- time.Time{}
	return g
}

// acquire takes the token and moves due up to the releaser's.
func (g *gilLock) acquire(due *time.Time) { takeDue(g.token, due) }

// release hands the token on, stamped with the holder's due time.
func (g *gilLock) release(due time.Time) { g.token <- due }

// takeDue receives a due-stamped token and moves due up to its stamp.
func takeDue(c chan time.Time, due *time.Time) {
	if t := <-c; t.After(*due) {
		*due = t
	}
}

// run executes total wall-time of CPU work in quantum-sized slices on
// the thread chain due, acquiring the token for each slice. ev (nil
// when tracing is off) observes the token protocol: one acquire when
// the CPU span first takes the token, a switch at every intermediate
// re-acquisition (the timeout-triggered drop of Figure 2), one release
// at the end — so a CPU span always carries exactly one gil.acquire.
func (g *gilLock) run(r *runner, due *time.Time, total time.Duration, ev func(string)) {
	first := true
	for total > 0 {
		q := g.quantum
		if q <= 0 || q > total {
			q = total
		}
		g.acquire(due)
		if ev != nil {
			if first {
				ev(obs.GILAcquire)
				first = false
			} else {
				ev(obs.GILSwitch)
			}
		}
		r.sleepWall(due, q)
		total -= q
		if ev != nil && total <= 0 {
			ev(obs.GILRelease)
		}
		g.release(*due)
	}
}

// cpuSet is a counted semaphore standing for a cpuset. Each slot
// carries its last releaser's due time. Free slots come back in the
// order they were released on the wall clock, not by due time, so a
// chain running behind its schedule can take a later-stamped slot while
// an earlier one is free and start later than gil.Dispatcher would
// place it. That only ever delays the modelled schedule, never
// undershoots it, and is accepted to keep acquire a channel receive.
type cpuSet struct{ slots chan time.Time }

func newCPUSet(n int) *cpuSet {
	c := &cpuSet{slots: make(chan time.Time, n)}
	for i := 0; i < n; i++ {
		c.slots <- time.Time{}
	}
	return c
}

func (c *cpuSet) acquire(due *time.Time) { takeDue(c.slots, due) }
func (c *cpuSet) release(due time.Time)  { c.slots <- due }
