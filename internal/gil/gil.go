// Package gil simulates how a set of functions executes as threads inside
// one OS process, under three runtime regimes:
//
//   - CPython/Node.js pseudo-parallelism: one global interpreter lock, the
//     holder is asked to drop it after a switch interval when others wait,
//     and blocking syscalls release it (paper Figure 2, Algorithm 1);
//   - true parallelism over a limited CPU set (Java threads, Figure 18, or
//     GIL-free runtimes, Figure 7);
//   - process pools (ProcessPoolExecutor): warm workers give near-zero
//     startup, a dispatcher admits tasks, and CPU pinning/sharing decides
//     contention (Section 4 "True Parallelism").
//
// One event-driven simulator covers all three because they differ only in
// (a) how many CPU slots exist, (b) how tasks are admitted, and (c) what a
// task admission costs. The white-box Predictor runs this simulator with
// idealized options; the ground-truth engine runs it with fidelity knobs
// (syscall overhead, spawn jitter, main-thread lag) turned on — the gap
// between the two is the prediction error studied in Figure 12.
//
// The simulator itself is engineered for PGP's search loop, where millions
// of short simulations price candidate layouts: a reusable Sim owns every
// buffer (kernel events, thread arenas, segment copies, the run queue) and
// schedules via argument-carrying callbacks instead of closures, so a warm
// Sim prices a wrap with zero heap allocations (guarded by
// testing.AllocsPerRun in gil_test.go). The package-level Simulate keeps
// the old contract — a caller-owned Result — by running on a pooled Sim
// and copying the result out.
package gil

import (
	"sort"
	"sync"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/cfs"
	"chiron/internal/sim"
)

// SpawnMode selects how threads come into existence.
type SpawnMode int

const (
	// MainThread models CPython Thread.start(): the orchestrator's main
	// thread holds the GIL while cloning, starting SpawnBatch threads per
	// scheduling turn (Algorithm 1 lines 4-5).
	MainThread SpawnMode = iota
	// Dispatcher models a pool executor: a parent process submits tasks
	// serially at SpawnCost each; tasks then wait for a free worker.
	Dispatcher
)

// Options parameterize one simulation.
type Options struct {
	// Procs is the number of CPU slots threads may occupy concurrently:
	// 1 under the GIL, the cpuset size under true parallelism.
	Procs int
	// Quantum is the scheduler switch interval (CPython's 5 ms switch
	// interval, or the CFS slice under true parallelism).
	Quantum time.Duration
	// Spawn selects the admission model.
	Spawn SpawnMode
	// SpawnBatch caps how many threads the main thread starts per turn
	// (MainThread mode only).
	SpawnBatch int
	// SpawnCost is the cost of creating/admitting one thread or task:
	// thread clone time in MainThread mode, dispatch cost in Dispatcher
	// mode.
	SpawnCost time.Duration
	// ExtraStartup is additional per-task initialization that runs after
	// spawn/dispatch completes but off the spawner's critical path: a
	// forked process's interpreter re-initialization. The spawner moves on
	// to the next task while this elapses.
	ExtraStartup time.Duration
	// Workers caps concurrently-admitted tasks in Dispatcher mode (pool
	// size); 0 means unlimited (MainThread mode ignores it).
	Workers int
	// LongestFirst makes the dispatcher admit tasks in descending
	// solo-latency order, Chiron-P's skew mitigation ("long-running
	// functions are started preferentially", Section 6.2).
	LongestFirst bool

	// CPUFactor and IOFactor scale CPU and blocking segment durations;
	// isolation mechanisms (MPK/SFI, Table 1) set them above 1.
	CPUFactor float64
	IOFactor  float64

	// ---- Fidelity knobs (engine only; the Predictor leaves them zero) ----

	// SyscallOverhead is extra on-CPU time charged on entry to every
	// blocking syscall.
	SyscallOverhead time.Duration
	// MainLag delays the first admission (watchdog hand-off).
	MainLag time.Duration
	// JitterPct applies +/- seeded jitter to every spawn cost.
	JitterPct float64
	// Seed drives the deterministic jitter stream.
	Seed int64

	// Record enables per-thread slice timelines (Figure 5 rendering).
	Record bool
}

func (o *Options) normalize() {
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Quantum <= 0 {
		o.Quantum = 5 * time.Millisecond
	}
	if o.SpawnBatch <= 0 {
		o.SpawnBatch = 8
	}
	if o.CPUFactor <= 0 {
		o.CPUFactor = 1
	}
	if o.IOFactor <= 0 {
		o.IOFactor = 1
	}
}

// SliceKind labels a timeline slice.
type SliceKind int

const (
	// Startup covers thread creation / task dispatch.
	Startup SliceKind = iota
	// Run is on-CPU execution.
	Run
	// Block is off-CPU time in a blocking syscall.
	Block
	// Wait is runnable time spent waiting for the GIL/CPU or a pool
	// worker.
	Wait
)

func (k SliceKind) String() string {
	switch k {
	case Startup:
		return "startup"
	case Run:
		return "run"
	case Block:
		return "block"
	case Wait:
		return "wait"
	}
	return "?"
}

// Slice is one span of a thread's timeline.
type Slice struct {
	From, To time.Duration
	Kind     SliceKind
}

// ThreadResult reports one function-thread's fate.
type ThreadResult struct {
	Name string
	// SpawnedAt is when creation/dispatch of the thread completed.
	SpawnedAt time.Duration
	// FirstRun is when the thread first got a CPU slot (-1 if never ran).
	FirstRun time.Duration
	// Finish is when the thread's last segment completed.
	Finish time.Duration
	// CPUTime and BlockTime are totals actually consumed.
	CPUTime   time.Duration
	BlockTime time.Duration
	// Slices is the recorded timeline (only when Options.Record).
	Slices []Slice
}

// Result is the outcome of one simulation.
type Result struct {
	// Total is the makespan: the time at which every thread has finished,
	// measured from process start (this is Algorithm 1's T_exec).
	Total time.Duration
	// Threads are per-function results in input order.
	Threads []ThreadResult
	// CPUBusy is the total on-CPU time across all threads; with Total and
	// Procs it yields utilization.
	CPUBusy time.Duration
}

type threadState int

const (
	stSpawning threadState = iota
	stWaitWorker
	stReady
	stRunning
	stBlocked
	stDone
)

// threadPhase names what a thread's single pending kernel event will do
// when it fires. Threads never have more than one event in flight, so one
// phase tag plus the pend* argument fields replace the per-event closures
// the simulator used to allocate.
type threadPhase int

const (
	phaseNone threadPhase = iota
	phaseAdmit
	phaseAdmitReady
	phaseEndSlice
	phaseUnblock
)

type thread struct {
	s         *Sim
	idx       int
	spec      *behavior.Spec
	segments  []behavior.Segment // duration-scaled copy (points into Sim's arena)
	segIdx    int
	segRem    time.Duration
	cpuUsed   time.Duration
	state     threadState
	extraDone bool
	res       *ThreadResult

	waitFrom time.Duration // when the current Ready/WaitWorker span began

	// Pending-event dispatch state (see threadPhase).
	phase       threadPhase
	pendRan     time.Duration
	pendSys     time.Duration
	pendPreempt bool
	pendBlock   bool
}

// VRuntime implements cfs.Entity.
func (t *thread) VRuntime() time.Duration { return t.cpuUsed }

// fire dispatches the thread's pending event.
func (t *thread) fire() {
	ph := t.phase
	t.phase = phaseNone
	switch ph {
	case phaseAdmit:
		t.s.admit(t)
	case phaseAdmitReady:
		t.s.admitReady(t)
	case phaseEndSlice:
		t.s.endSlice(t)
	case phaseUnblock:
		t.s.unblock(t)
	}
}

// mainEnt is the orchestrator's main thread: it competes for the CPU
// through the same CFS queue as function threads (so under the GIL, thread
// creation is interleaved with function execution exactly as in Figure 2)
// and spends its slices cloning the next batch of threads.
type mainEnt struct {
	s       *Sim
	cpuUsed time.Duration
	next    int // index of the next thread to spawn
}

// VRuntime implements cfs.Entity.
func (m *mainEnt) VRuntime() time.Duration { return m.cpuUsed }

// Package-level event callbacks: referencing a top-level function as a
// value is allocation-free, and the `any` argument always carries a
// pointer, which boxes without allocating.
func fireThreadEvent(a any) { a.(*thread).fire() }
func fireMainStart(a any) {
	s := a.(*Sim)
	s.ready.Add(&s.main)
	s.schedule()
}
func fireMainDone(a any)    { a.(*Sim).mainDone() }
func fireDispatchAll(a any) { a.(*Sim).dispatchAll() }

// byLongest stable-sorts the dispatch order by descending solo latency.
// It lives in the Sim so sorting reuses one sorter and one order slice
// across Simulate calls (no per-dispatch comparator closure).
type byLongest struct{ ths []*thread }

func (b *byLongest) Len() int      { return len(b.ths) }
func (b *byLongest) Swap(i, j int) { b.ths[i], b.ths[j] = b.ths[j], b.ths[i] }
func (b *byLongest) Less(i, j int) bool {
	return b.ths[i].spec.SoloLatency() > b.ths[j].spec.SoloLatency()
}

// Sim is a reusable simulator. It owns every buffer a run needs — the
// event kernel, thread and segment arenas, result slots, the CFS run
// queue — so a warm Sim executes Simulate with zero heap allocations.
// A Sim is not safe for concurrent use, and the Result returned by
// Simulate (including everything it references) is owned by the Sim and
// valid only until the next Simulate call. Callers that retain results
// use the package-level Simulate, which returns an independent copy.
type Sim struct {
	opt      Options
	k        *sim.Kernel
	rng      sim.Rand
	ready    cfs.Queue
	waitQ    []*thread // Dispatcher mode: admitted but no worker yet
	waitHead int       // consumed prefix of waitQ (ring-free FIFO reuse)
	free     int       // free CPU slots
	workers  int       // free pool workers (Dispatcher mode)
	threads  []*thread
	main     mainEnt
	alive    int
	res      Result

	// Recycled arenas.
	threadBuf []thread
	segBuf    []behavior.Segment
	resBuf    []ThreadResult
	sorter    byLongest
}

// NewSim returns an empty reusable simulator.
func NewSim() *Sim {
	return &Sim{k: sim.New()}
}

// simPool backs the package-level Simulate and hot-path callers that
// acquire a Sim directly (predict's cached Algorithm-1 pricing).
var simPool = sync.Pool{New: func() interface{} { return NewSim() }}

// AcquireSim takes a reusable simulator from the process-wide pool.
// Callers must ReleaseSim it after reading the Result (the Result dies
// with the release).
func AcquireSim() *Sim { return simPool.Get().(*Sim) }

// ReleaseSim returns a simulator to the pool. The Result of its last
// Simulate call must not be used afterwards.
func ReleaseSim(s *Sim) { simPool.Put(s) }

// Simulate runs the given function set to completion and returns per-thread
// results. It never touches the wall clock and is fully deterministic for a
// given (specs, Options) pair. The returned Result is an independent copy
// the caller owns; hot paths that only read Result.Total use
// AcquireSim/ReleaseSim with (*Sim).Simulate to skip the copy.
func Simulate(specs []*behavior.Spec, opt Options) *Result {
	s := AcquireSim()
	out := cloneResult(s.Simulate(specs, opt))
	ReleaseSim(s)
	return out
}

func cloneResult(r *Result) *Result {
	out := &Result{Total: r.Total, CPUBusy: r.CPUBusy}
	out.Threads = make([]ThreadResult, len(r.Threads))
	copy(out.Threads, r.Threads)
	for i := range out.Threads {
		if s := out.Threads[i].Slices; len(s) > 0 {
			out.Threads[i].Slices = append([]Slice(nil), s...)
		} else {
			out.Threads[i].Slices = nil
		}
	}
	return out
}

// Simulate runs one simulation on the reusable Sim. See the type comment
// for the result's lifetime.
func (s *Sim) Simulate(specs []*behavior.Spec, opt Options) *Result {
	opt.normalize()
	s.opt = opt
	s.k.Reset()
	s.ready.Reset()
	s.rng.Seed(opt.Seed)
	s.free = opt.Procs
	s.workers = opt.Workers
	if opt.Workers <= 0 {
		s.workers = len(specs) + 1 // effectively unlimited
	}
	s.alive = len(specs)
	s.waitQ = s.waitQ[:0]
	s.waitHead = 0
	s.main = mainEnt{s: s}

	n := len(specs)
	if cap(s.resBuf) < n {
		s.resBuf = make([]ThreadResult, n)
	} else {
		s.resBuf = s.resBuf[:n]
	}
	s.res = Result{Threads: s.resBuf}
	if n == 0 {
		return &s.res
	}

	if cap(s.threadBuf) < n {
		s.threadBuf = make([]thread, n)
	} else {
		s.threadBuf = s.threadBuf[:n]
	}
	if cap(s.threads) < n {
		s.threads = make([]*thread, n)
	} else {
		s.threads = s.threads[:n]
	}
	// The segment arena is sized up front so per-thread subslices stay
	// valid (no growth while handing out windows).
	totalSegs := 0
	for _, sp := range specs {
		totalSegs += len(sp.Segments)
	}
	if cap(s.segBuf) < totalSegs {
		s.segBuf = make([]behavior.Segment, totalSegs)
	} else {
		s.segBuf = s.segBuf[:totalSegs]
	}

	segOff := 0
	for i, sp := range specs {
		tr := &s.resBuf[i]
		*tr = ThreadResult{Name: sp.Name, FirstRun: -1, Slices: tr.Slices[:0]}
		th := &s.threadBuf[i]
		*th = thread{s: s, idx: i, spec: sp, res: tr}
		segs := s.segBuf[segOff : segOff+len(sp.Segments)]
		segOff += len(sp.Segments)
		for j, seg := range sp.Segments {
			f := opt.CPUFactor
			if seg.Kind.Blocking() {
				f = opt.IOFactor
			}
			seg.Dur = time.Duration(float64(seg.Dur) * f)
			if seg.Dur <= 0 {
				seg.Dur = time.Nanosecond
			}
			segs[j] = seg
		}
		th.segments = segs
		th.segRem = segs[0].Dur
		s.threads[i] = th
	}

	switch opt.Spawn {
	case Dispatcher:
		s.k.AtArg(opt.MainLag, fireDispatchAll, s)
	default:
		s.k.AtArg(opt.MainLag, fireMainStart, s)
	}

	s.k.SetBudget(50_000_000)
	if err := s.k.Run(); err != nil {
		panic("gil: simulation did not converge: " + err.Error())
	}
	return &s.res
}

// jittered returns d with +/- JitterPct deterministic noise.
func (s *Sim) jittered(d time.Duration) time.Duration {
	if s.opt.JitterPct <= 0 || d <= 0 {
		return d
	}
	u := s.rng.Float64()*2 - 1
	out := time.Duration(float64(d) * (1 + s.opt.JitterPct*u))
	if out <= 0 {
		out = time.Nanosecond
	}
	return out
}

// runMain executes one of the main thread's scheduling turns: while holding
// a CPU slot it clones the next batch of threads, each at SpawnCost
// (Algorithm 1 lines 4-5: "the same amount of functions is started in each
// interval"). If spawns remain afterwards, the main thread re-enters the
// run queue and competes on vruntime like everyone else.
func (s *Sim) runMain() {
	batch := s.opt.SpawnBatch
	if rem := len(s.threads) - s.main.next; rem < batch {
		batch = rem
	}
	var busy time.Duration
	for i := 0; i < batch; i++ {
		busy += s.jittered(s.opt.SpawnCost)
		th := s.threads[s.main.next+i]
		at := s.k.Now() + busy
		th.phase = phaseAdmit
		s.k.AtArg(at, fireThreadEvent, th)
		if s.opt.Record {
			th.res.Slices = append(th.res.Slices, Slice{From: s.k.Now(), To: at, Kind: Startup})
		}
	}
	s.main.next += batch
	s.main.cpuUsed += busy
	s.k.AtArg(s.k.Now()+busy, fireMainDone, s)
}

// mainDone releases the main thread's CPU slot after a spawn turn.
func (s *Sim) mainDone() {
	s.free++
	if s.main.next < len(s.threads) {
		s.ready.Add(&s.main)
	}
	s.schedule()
}

// dispatchAll models a pool dispatcher submitting every task serially.
// The admission order slice and its sorter are reused across calls.
func (s *Sim) dispatchAll() {
	order := append(s.sorter.ths[:0], s.threads...)
	s.sorter.ths = order
	if s.opt.LongestFirst {
		sort.Stable(&s.sorter)
	}
	// Task j is issued after j prior dispatches: the first fork/submit
	// waits nothing, matching Eq. 4's (j-1) x T_Block.
	var busy time.Duration
	for _, th := range order {
		at := s.k.Now() + busy
		th.phase = phaseAdmit
		s.k.AtArg(at, fireThreadEvent, th)
		if s.opt.Record && busy > 0 {
			th.res.Slices = append(th.res.Slices, Slice{From: s.k.Now(), To: at, Kind: Wait})
		}
		busy += s.jittered(s.opt.SpawnCost)
	}
}

// admit makes a spawned thread runnable, subject to worker availability.
// Per-task ExtraStartup elapses first, off the spawner's critical path.
func (s *Sim) admit(th *thread) {
	if s.opt.ExtraStartup > 0 && !th.extraDone {
		th.extraDone = true
		extra := s.jittered(s.opt.ExtraStartup)
		from := s.k.Now()
		if s.opt.Record {
			th.res.Slices = append(th.res.Slices, Slice{From: from, To: from + extra, Kind: Startup})
		}
		th.phase = phaseAdmitReady
		s.k.AtArg(from+extra, fireThreadEvent, th)
		return
	}
	s.admitReady(th)
}

func (s *Sim) admitReady(th *thread) {
	th.res.SpawnedAt = s.k.Now()
	if s.workers > 0 {
		s.workers--
		s.makeReady(th)
		s.schedule()
		return
	}
	th.state = stWaitWorker
	th.waitFrom = s.k.Now()
	s.waitQ = append(s.waitQ, th)
}

func (s *Sim) makeReady(th *thread) {
	th.state = stReady
	th.waitFrom = s.k.Now()
	s.ready.Add(th)
}

// schedule fills free CPU slots from the ready queue.
func (s *Sim) schedule() {
	for s.free > 0 && s.ready.Len() > 0 {
		e := s.ready.PopMin()
		s.free--
		switch ent := e.(type) {
		case *thread:
			s.startSlice(ent)
		case *mainEnt:
			s.runMain()
		}
	}
}

// cpuChain returns the contiguous on-CPU time from the thread's current
// position to the next blocking segment or the end, plus whether a block
// or the end follows.
func (t *thread) cpuChain() (d time.Duration, nextBlock bool, done bool) {
	i, rem := t.segIdx, t.segRem
	for i < len(t.segments) {
		seg := t.segments[i]
		if seg.Kind.Blocking() {
			return d, true, false
		}
		d += rem
		i++
		if i < len(t.segments) {
			rem = t.segments[i].Dur
		}
	}
	return d, false, true
}

// consumeCPU advances the thread's position by d of on-CPU time across CPU
// segments.
func (t *thread) consumeCPU(d time.Duration) {
	for d > 0 {
		if t.segRem > d {
			t.segRem -= d
			return
		}
		d -= t.segRem
		t.segIdx++
		if t.segIdx >= len(t.segments) {
			t.segRem = 0
			return
		}
		t.segRem = t.segments[t.segIdx].Dur
	}
}

func (s *Sim) startSlice(th *thread) {
	now := s.k.Now()
	if th.res.FirstRun < 0 {
		th.res.FirstRun = now
	}
	if s.opt.Record && now > th.waitFrom {
		th.res.Slices = append(th.res.Slices, Slice{From: th.waitFrom, To: now, Kind: Wait})
	}
	th.state = stRunning

	chain, nextBlock, _ := th.cpuChain()
	runFor := chain
	preempt := false
	if runFor > s.opt.Quantum {
		runFor = s.opt.Quantum
		preempt = true
	}
	syscall := time.Duration(0)
	if !preempt && nextBlock {
		syscall = s.opt.SyscallOverhead
	}
	total := runFor + syscall
	end := now + total
	th.phase = phaseEndSlice
	th.pendRan = runFor
	th.pendSys = syscall
	th.pendPreempt = preempt
	th.pendBlock = nextBlock
	s.k.AtArg(end, fireThreadEvent, th)
	if s.opt.Record && total > 0 {
		th.res.Slices = append(th.res.Slices, Slice{From: now, To: end, Kind: Run})
	}
}

func (s *Sim) endSlice(th *thread) {
	ran, syscall := th.pendRan, th.pendSys
	preempt, nextBlock := th.pendPreempt, th.pendBlock
	th.cpuUsed += ran + syscall
	th.res.CPUTime += ran + syscall
	th.consumeCPU(ran)
	s.free++

	switch {
	case preempt:
		s.makeReady(th)
	case nextBlock:
		seg := th.segments[th.segIdx]
		th.state = stBlocked
		from := s.k.Now()
		until := from + seg.Dur
		th.res.BlockTime += seg.Dur
		if s.opt.Record {
			th.res.Slices = append(th.res.Slices, Slice{From: from, To: until, Kind: Block})
		}
		th.phase = phaseUnblock
		s.k.AtArg(until, fireThreadEvent, th)
	default:
		s.finish(th)
	}
	s.schedule()
}

func (s *Sim) unblock(th *thread) {
	th.segIdx++
	if th.segIdx >= len(th.segments) {
		// Block was the final segment: the thread exits as the syscall
		// returns (the brief GIL reacquisition to unwind is part of the
		// engine/predictor model gap, not simulated).
		s.finish(th)
		s.schedule()
		return
	}
	th.segRem = th.segments[th.segIdx].Dur
	s.makeReady(th)
	s.schedule()
}

func (s *Sim) finish(th *thread) {
	if th.state == stDone {
		return
	}
	th.state = stDone
	th.res.Finish = s.k.Now()
	s.alive--
	if s.res.Total < th.res.Finish {
		s.res.Total = th.res.Finish
	}
	s.res.CPUBusy += th.res.CPUTime
	// A finished task's pool worker frees up for the wait queue.
	if s.opt.Spawn == Dispatcher {
		s.workers++
		s.releaseWorker()
	}
}

// releaseWorker admits the next waiting task if a worker is free. The wait
// queue is consumed through waitHead so the buffer is reused, not resliced
// away.
func (s *Sim) releaseWorker() {
	for s.workers > 0 && s.waitHead < len(s.waitQ) {
		th := s.waitQ[s.waitHead]
		s.waitQ[s.waitHead] = nil
		s.waitHead++
		s.workers--
		if s.opt.Record && s.k.Now() > th.waitFrom {
			th.res.Slices = append(th.res.Slices, Slice{From: th.waitFrom, To: s.k.Now(), Kind: Wait})
		}
		s.makeReady(th)
	}
	if s.waitHead == len(s.waitQ) {
		s.waitQ = s.waitQ[:0]
		s.waitHead = 0
	}
}
