package gil

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"chiron/internal/behavior"
)

func cpuFn(name string, d time.Duration) *behavior.Spec {
	return &behavior.Spec{
		Name: name, Runtime: behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.CPU, Dur: d}},
		MemMB:    1,
	}
}

func sleepFn(name string, cpu, sleep time.Duration) *behavior.Spec {
	return &behavior.Spec{
		Name: name, Runtime: behavior.Python,
		Segments: []behavior.Segment{
			{Kind: behavior.CPU, Dur: cpu},
			{Kind: behavior.Sleep, Dur: sleep},
			{Kind: behavior.CPU, Dur: cpu},
		},
		MemMB: 1,
	}
}

var idealGIL = Options{
	Procs:      1,
	Quantum:    5 * time.Millisecond,
	Spawn:      MainThread,
	SpawnBatch: 8,
	SpawnCost:  300 * time.Microsecond,
}

func TestEmptyInput(t *testing.T) {
	res := Simulate(nil, idealGIL)
	if res.Total != 0 || len(res.Threads) != 0 {
		t.Fatalf("empty simulation returned %+v", res)
	}
}

func TestSingleCPUThread(t *testing.T) {
	res := Simulate([]*behavior.Spec{cpuFn("f", 10*time.Millisecond)}, idealGIL)
	want := 300*time.Microsecond + 10*time.Millisecond // spawn + run
	if res.Total != want {
		t.Fatalf("Total = %v, want %v", res.Total, want)
	}
	th := res.Threads[0]
	if th.CPUTime != 10*time.Millisecond || th.BlockTime != 0 {
		t.Fatalf("thread accounting = %+v", th)
	}
	if th.SpawnedAt != 300*time.Microsecond {
		t.Fatalf("SpawnedAt = %v", th.SpawnedAt)
	}
	if th.Finish != want {
		t.Fatalf("Finish = %v, want %v", th.Finish, want)
	}
}

func TestGILSerializesCPUThreads(t *testing.T) {
	// Two 10ms CPU threads under the GIL must take >= 20ms: no speedup
	// from pseudo-parallelism (Section 2.1).
	specs := []*behavior.Spec{cpuFn("a", 10*time.Millisecond), cpuFn("b", 10*time.Millisecond)}
	res := Simulate(specs, idealGIL)
	if res.Total < 20*time.Millisecond {
		t.Fatalf("GIL run finished in %v, impossible under serialization", res.Total)
	}
	if res.Total > 21*time.Millisecond {
		t.Fatalf("GIL run took %v, too much overhead", res.Total)
	}
}

func TestTrueParallelismRunsConcurrently(t *testing.T) {
	opt := idealGIL
	opt.Procs = 2
	specs := []*behavior.Spec{cpuFn("a", 10*time.Millisecond), cpuFn("b", 10*time.Millisecond)}
	res := Simulate(specs, opt)
	// Both can run at once; total ~= spawn of b + 10ms.
	if res.Total > 11*time.Millisecond {
		t.Fatalf("2-CPU run took %v, want ~10.6ms", res.Total)
	}
}

func TestBlockOpsOverlapUnderGIL(t *testing.T) {
	// Two threads that sleep 50ms each: the sleeps overlap (Figure 2), so
	// total is far below the serialized 100ms+.
	specs := []*behavior.Spec{
		sleepFn("a", time.Millisecond, 50*time.Millisecond),
		sleepFn("b", time.Millisecond, 50*time.Millisecond),
	}
	res := Simulate(specs, idealGIL)
	if res.Total > 60*time.Millisecond {
		t.Fatalf("sleeps did not overlap: total %v", res.Total)
	}
	if res.Total < 50*time.Millisecond {
		t.Fatalf("total %v below a single sleep", res.Total)
	}
}

func TestQuantumPreemptionSharesCPUFairly(t *testing.T) {
	// With 5ms quanta, two 20ms CPU threads should finish within one
	// quantum of each other rather than strictly one-after-the-other.
	specs := []*behavior.Spec{cpuFn("a", 20*time.Millisecond), cpuFn("b", 20*time.Millisecond)}
	res := Simulate(specs, idealGIL)
	a, b := res.Threads[0].Finish, res.Threads[1].Finish
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 6*time.Millisecond {
		t.Fatalf("finish skew %v exceeds a quantum; CFS interleaving broken (a=%v b=%v)", diff, a, b)
	}
}

func TestFirstRunWaitsForGIL(t *testing.T) {
	// Under the GIL the second thread's first run must wait until the
	// first yields (quantum) even though it spawned almost immediately.
	specs := []*behavior.Spec{cpuFn("a", 20*time.Millisecond), cpuFn("b", 20*time.Millisecond)}
	res := Simulate(specs, idealGIL)
	b := res.Threads[1]
	if b.FirstRun < 5*time.Millisecond {
		t.Fatalf("thread b first ran at %v, before any quantum expired", b.FirstRun)
	}
}

func TestDispatcherWorkerLimitSerializes(t *testing.T) {
	opt := Options{
		Procs:     4,
		Quantum:   5 * time.Millisecond,
		Spawn:     Dispatcher,
		SpawnCost: 100 * time.Microsecond,
		Workers:   1,
	}
	specs := []*behavior.Spec{cpuFn("a", 5*time.Millisecond), cpuFn("b", 5*time.Millisecond), cpuFn("c", 5*time.Millisecond)}
	res := Simulate(specs, opt)
	if res.Total < 15*time.Millisecond {
		t.Fatalf("1 worker finished 3x5ms in %v; worker limit not enforced", res.Total)
	}
}

func TestDispatcherUnlimitedWorkersParallel(t *testing.T) {
	opt := Options{
		Procs:     4,
		Quantum:   5 * time.Millisecond,
		Spawn:     Dispatcher,
		SpawnCost: 100 * time.Microsecond,
		Workers:   8,
	}
	specs := []*behavior.Spec{cpuFn("a", 5*time.Millisecond), cpuFn("b", 5*time.Millisecond), cpuFn("c", 5*time.Millisecond)}
	res := Simulate(specs, opt)
	if res.Total > 6*time.Millisecond {
		t.Fatalf("4 CPUs / 8 workers took %v for 3 independent 5ms tasks", res.Total)
	}
}

func TestLongestFirstReducesMakespanUnderSkew(t *testing.T) {
	// One 40ms task and four 5ms tasks on 2 CPUs: starting the long task
	// last wastes its length at the tail (Chiron-P's skew mitigation).
	specs := []*behavior.Spec{
		cpuFn("s1", 5*time.Millisecond), cpuFn("s2", 5*time.Millisecond),
		cpuFn("s3", 5*time.Millisecond), cpuFn("s4", 5*time.Millisecond),
		cpuFn("long", 40*time.Millisecond),
	}
	base := Options{
		Procs: 2, Quantum: 5 * time.Millisecond, Spawn: Dispatcher,
		SpawnCost: 50 * time.Microsecond, Workers: 2,
	}
	fifo := Simulate(specs, base)
	lf := base
	lf.LongestFirst = true
	sorted := Simulate(specs, lf)
	if sorted.Total >= fifo.Total {
		t.Fatalf("longest-first (%v) did not beat FIFO (%v)", sorted.Total, fifo.Total)
	}
}

func TestExecutionFactorsScaleWork(t *testing.T) {
	spec := sleepFn("f", 10*time.Millisecond, 10*time.Millisecond)
	plain := Simulate([]*behavior.Spec{spec}, idealGIL)
	opt := idealGIL
	opt.CPUFactor = 1.5
	opt.IOFactor = 1.2
	scaled := Simulate([]*behavior.Spec{spec}, opt)
	wantCPU := time.Duration(float64(plain.Threads[0].CPUTime) * 1.5)
	if scaled.Threads[0].CPUTime != wantCPU {
		t.Errorf("CPUFactor: got %v, want %v", scaled.Threads[0].CPUTime, wantCPU)
	}
	wantIO := time.Duration(float64(plain.Threads[0].BlockTime) * 1.2)
	if scaled.Threads[0].BlockTime != wantIO {
		t.Errorf("IOFactor: got %v, want %v", scaled.Threads[0].BlockTime, wantIO)
	}
}

func TestSyscallOverheadAddsCPU(t *testing.T) {
	spec := sleepFn("f", time.Millisecond, time.Millisecond)
	opt := idealGIL
	opt.SyscallOverhead = 100 * time.Microsecond
	res := Simulate([]*behavior.Spec{spec}, opt)
	// One blocking segment -> exactly one syscall overhead charge.
	want := 2*time.Millisecond + 100*time.Microsecond
	if res.Threads[0].CPUTime != want {
		t.Fatalf("CPUTime = %v, want %v", res.Threads[0].CPUTime, want)
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	specs := []*behavior.Spec{cpuFn("a", 3*time.Millisecond), cpuFn("b", 4*time.Millisecond)}
	opt := idealGIL
	opt.JitterPct = 0.2
	opt.Seed = 42
	r1 := Simulate(specs, opt)
	r2 := Simulate(specs, opt)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different results")
	}
	opt.Seed = 43
	r3 := Simulate(specs, opt)
	if reflect.DeepEqual(r1.Total, r3.Total) {
		t.Fatal("different seeds produced identical totals (jitter inert)")
	}
}

func TestLeadingBlockSegment(t *testing.T) {
	spec := &behavior.Spec{
		Name: "io-first", Runtime: behavior.Python,
		Segments: []behavior.Segment{
			{Kind: behavior.NetIO, Dur: 5 * time.Millisecond},
			{Kind: behavior.CPU, Dur: time.Millisecond},
		},
		MemMB: 1,
	}
	res := Simulate([]*behavior.Spec{spec}, idealGIL)
	want := 300*time.Microsecond + 6*time.Millisecond
	if res.Total != want {
		t.Fatalf("Total = %v, want %v", res.Total, want)
	}
}

func TestTrailingBlockSegment(t *testing.T) {
	spec := &behavior.Spec{
		Name: "io-last", Runtime: behavior.Python,
		Segments: []behavior.Segment{
			{Kind: behavior.CPU, Dur: time.Millisecond},
			{Kind: behavior.DiskIO, Dur: 5 * time.Millisecond},
		},
		MemMB: 1,
	}
	res := Simulate([]*behavior.Spec{spec}, idealGIL)
	want := 300*time.Microsecond + 6*time.Millisecond
	if res.Total != want {
		t.Fatalf("Total = %v, want %v", res.Total, want)
	}
	if res.Threads[0].Finish != want {
		t.Fatalf("Finish = %v, want %v", res.Threads[0].Finish, want)
	}
}

func TestRecordedTimelineIsConsistent(t *testing.T) {
	specs := []*behavior.Spec{
		sleepFn("a", 3*time.Millisecond, 10*time.Millisecond),
		sleepFn("b", 3*time.Millisecond, 10*time.Millisecond),
		cpuFn("c", 7*time.Millisecond),
	}
	opt := idealGIL
	opt.Record = true
	res := Simulate(specs, opt)
	for _, th := range res.Threads {
		if len(th.Slices) == 0 {
			t.Fatalf("%s: no slices recorded", th.Name)
		}
		var run, block time.Duration
		for i, sl := range th.Slices {
			if sl.To < sl.From {
				t.Fatalf("%s slice %d inverted: %+v", th.Name, i, sl)
			}
			if sl.To > res.Total {
				t.Fatalf("%s slice %d ends after makespan", th.Name, i)
			}
			switch sl.Kind {
			case Run:
				run += sl.To - sl.From
			case Block:
				block += sl.To - sl.From
			}
		}
		if run != th.CPUTime {
			t.Errorf("%s: recorded run time %v != CPUTime %v", th.Name, run, th.CPUTime)
		}
		if block != th.BlockTime {
			t.Errorf("%s: recorded block time %v != BlockTime %v", th.Name, block, th.BlockTime)
		}
		last := th.Slices[len(th.Slices)-1]
		if last.To != th.Finish {
			t.Errorf("%s: timeline ends at %v, Finish %v", th.Name, last.To, th.Finish)
		}
	}
}

func TestSliceKindStrings(t *testing.T) {
	for k, want := range map[SliceKind]string{Startup: "startup", Run: "run", Block: "block", Wait: "wait", SliceKind(9): "?"} {
		if k.String() != want {
			t.Errorf("SliceKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestPropertyConservation checks the fundamental accounting invariants on
// random workloads: per-thread CPU and block totals match the (scaled)
// spec; the makespan is at least the critical path of any single thread and
// at most the fully-serialized sum.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8, procsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		specs := make([]*behavior.Spec, n)
		for i := range specs {
			specs[i] = behavior.Random("f", rng, 500*time.Microsecond, 20*time.Millisecond)
		}
		opt := idealGIL
		opt.Procs = int(procsRaw%4) + 1
		res := Simulate(specs, opt)

		var serial time.Duration
		var maxSolo time.Duration
		for i, sp := range specs {
			th := res.Threads[i]
			if th.CPUTime != sp.TotalCPU() || th.BlockTime != sp.TotalBlock() {
				return false
			}
			if th.Finish > res.Total {
				return false
			}
			serial += sp.SoloLatency()
			if sp.SoloLatency() > maxSolo {
				maxSolo = sp.SoloLatency()
			}
		}
		spawnBudget := time.Duration(n) * opt.SpawnCost
		if res.Total < maxSolo {
			return false
		}
		if res.Total > serial+spawnBudget+time.Millisecond {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMoreProcsWithinGrahamBound: adding CPUs is not monotone
// for a greedy scheduler (Graham's multiprocessing anomaly), so the
// property is Graham's bound instead. Every work-conserving schedule of
// these threads on p CPUs satisfies
//
//	max(L, W/p) <= Total <= W/p + L
//
// where W is the CPU work (spawn costs included) and L the longest chain
// (thread k's k+1 serial spawns plus its solo latency): at any instant a
// CPU is idle, the chain ending at the last thread to finish is running,
// blocking or being spawned.
//
// The pinned case below is the anomaly: nine threads (0-8), thread 8
// spawned in the main thread's second batch. On 3 CPUs main gets its
// turn when thread 7 blocks at 6.350668 ms; on 4 CPUs the extra CPU has
// moved threads 6 and 7 forward, so at that instant all four are busy
// and lower-vruntime thread 6 takes the next free CPU. Main waits until
// 6.392953 ms, and Total goes 14.130915 ms -> 14.173200 ms (thread 8
// runs the same 7.78 ms after its turn either way).
func TestPropertyMoreProcsWithinGrahamBound(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		specs := make([]*behavior.Spec, n)
		for i := range specs {
			specs[i] = behavior.Random("f", rng, time.Millisecond, 10*time.Millisecond)
		}
		work := time.Duration(n) * idealGIL.SpawnCost
		var chain time.Duration
		for k, sp := range specs {
			work += sp.TotalCPU()
			chain = max(chain, time.Duration(k+1)*idealGIL.SpawnCost+sp.SoloLatency())
		}
		for procs := 1; procs <= 4; procs++ {
			opt := idealGIL
			opt.Procs = procs
			total := Simulate(specs, opt).Total
			share := work / time.Duration(procs)
			if total < max(chain, share) || total > share+chain {
				t.Logf("seed=%d n=%d procs=%d: Total %v outside [%v, %v]",
					seed, n, procs, total, max(chain, share), share+chain)
				return false
			}
		}
		return true
	}
	if !f(3089625478094297126, 0x57) {
		t.Fatal("pinned anomaly case violates Graham's bound")
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCPUBusyAggregation(t *testing.T) {
	specs := []*behavior.Spec{cpuFn("a", 3*time.Millisecond), cpuFn("b", 4*time.Millisecond)}
	res := Simulate(specs, idealGIL)
	if res.CPUBusy != 7*time.Millisecond {
		t.Fatalf("CPUBusy = %v, want 7ms", res.CPUBusy)
	}
}

func TestExtraStartupOffCriticalPathOfDispatcher(t *testing.T) {
	// Fork semantics: the dispatcher issues task j at j x SpawnCost; each
	// task's ExtraStartup (interpreter init) overlaps later dispatches.
	opt := Options{
		Procs: 8, Quantum: 5 * time.Millisecond,
		Spawn: Dispatcher, SpawnCost: 2 * time.Millisecond,
		ExtraStartup: 7 * time.Millisecond,
	}
	specs := []*behavior.Spec{
		cpuFn("a", time.Millisecond), cpuFn("b", time.Millisecond), cpuFn("c", time.Millisecond),
	}
	res := Simulate(specs, opt)
	// Task j ready at j*2ms + 7ms; last finishes at 2*2+7+1 = 12ms.
	want := 12 * time.Millisecond
	if res.Total != want {
		t.Fatalf("Total = %v, want %v", res.Total, want)
	}
	for j, th := range res.Threads {
		wantSpawn := time.Duration(j)*2*time.Millisecond + 7*time.Millisecond
		if th.SpawnedAt != wantSpawn {
			t.Errorf("task %d spawned at %v, want %v", j, th.SpawnedAt, wantSpawn)
		}
	}
}

func TestExtraStartupRecordedAsStartupSlice(t *testing.T) {
	opt := Options{
		Procs: 1, Quantum: 5 * time.Millisecond,
		Spawn: Dispatcher, SpawnCost: time.Millisecond,
		ExtraStartup: 3 * time.Millisecond, Record: true,
	}
	res := Simulate([]*behavior.Spec{cpuFn("a", time.Millisecond)}, opt)
	found := false
	for _, sl := range res.Threads[0].Slices {
		if sl.Kind == Startup && sl.To-sl.From == 3*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("ExtraStartup slice missing: %+v", res.Threads[0].Slices)
	}
}

func TestWorkerLimitWithLongestFirstOrdering(t *testing.T) {
	// With one worker and longest-first, the long task must run first.
	opt := Options{
		Procs: 1, Quantum: 5 * time.Millisecond,
		Spawn: Dispatcher, SpawnCost: 100 * time.Microsecond,
		Workers: 1, LongestFirst: true,
	}
	specs := []*behavior.Spec{
		cpuFn("short", 2*time.Millisecond),
		cpuFn("long", 20*time.Millisecond),
	}
	res := Simulate(specs, opt)
	longTh, shortTh := res.Threads[1], res.Threads[0]
	if longTh.FirstRun > shortTh.FirstRun {
		t.Fatalf("long task first ran at %v, after short's %v; longest-first broken",
			longTh.FirstRun, shortTh.FirstRun)
	}
}

func TestMainThreadSpawnBatchesRespectBatchSize(t *testing.T) {
	// With batch size 2 and 6 threads, spawning takes three main-thread
	// turns; under the GIL those turns interleave with execution, so the
	// last thread spawns well after the first batch.
	opt := idealGIL
	opt.SpawnBatch = 2
	specs := make([]*behavior.Spec, 6)
	for i := range specs {
		specs[i] = cpuFn("f", 4*time.Millisecond)
	}
	res := Simulate(specs, opt)
	if res.Threads[5].SpawnedAt < res.Threads[1].SpawnedAt+4*time.Millisecond {
		t.Fatalf("batch 3 spawned at %v, too close to batch 1 (%v); main thread did not yield between batches",
			res.Threads[5].SpawnedAt, res.Threads[1].SpawnedAt)
	}
}

func TestSimReuseMatchesFreshSimulate(t *testing.T) {
	// A reused Sim must be indistinguishable from a fresh Simulate call:
	// no state may leak between runs, including across different options
	// and spawn modes.
	specsA := []*behavior.Spec{
		cpuFn("a", 10*time.Millisecond),
		sleepFn("b", 3*time.Millisecond, 20*time.Millisecond),
		cpuFn("c", 7*time.Millisecond),
	}
	specsB := []*behavior.Spec{
		sleepFn("x", 2*time.Millisecond, 9*time.Millisecond),
		cpuFn("y", 4*time.Millisecond),
	}
	opts := []Options{
		{Procs: 1, Quantum: 5 * time.Millisecond, SpawnCost: 100 * time.Microsecond, Record: true},
		{Procs: 4, Quantum: 5 * time.Millisecond, Spawn: Dispatcher, Workers: 2,
			SpawnCost: 50 * time.Microsecond, LongestFirst: true},
		{Procs: 2, Quantum: time.Millisecond, SyscallOverhead: 20 * time.Microsecond,
			JitterPct: 0.1, Seed: 42, ExtraStartup: time.Millisecond, Spawn: Dispatcher},
	}
	s := NewSim()
	for _, opt := range opts {
		for _, specs := range [][]*behavior.Spec{specsA, specsB} {
			want := Simulate(specs, opt)
			got := s.Simulate(specs, opt)
			if got.Total != want.Total || got.CPUBusy != want.CPUBusy {
				t.Fatalf("reused Sim diverged: got total=%v busy=%v, want total=%v busy=%v",
					got.Total, got.CPUBusy, want.Total, want.CPUBusy)
			}
			if len(got.Threads) != len(want.Threads) {
				t.Fatalf("thread count %d, want %d", len(got.Threads), len(want.Threads))
			}
			for i := range want.Threads {
				g, w := got.Threads[i], want.Threads[i]
				if g.Finish != w.Finish || g.CPUTime != w.CPUTime || g.BlockTime != w.BlockTime ||
					g.SpawnedAt != w.SpawnedAt || g.FirstRun != w.FirstRun {
					t.Fatalf("thread %d diverged on reused Sim:\n got %+v\nwant %+v", i, g, w)
				}
				if len(g.Slices) != len(w.Slices) {
					t.Fatalf("thread %d slices %d, want %d", i, len(g.Slices), len(w.Slices))
				}
				for j := range w.Slices {
					if g.Slices[j] != w.Slices[j] {
						t.Fatalf("thread %d slice %d = %+v, want %+v", i, j, g.Slices[j], w.Slices[j])
					}
				}
			}
		}
	}
}

func TestWarmSimSimulateDoesNotAllocate(t *testing.T) {
	// Allocation budget: pricing a wrap on a warm Sim is the innermost
	// operation of the PGP search, so it must not touch the heap.
	specs := []*behavior.Spec{
		cpuFn("a", 10*time.Millisecond),
		sleepFn("b", 3*time.Millisecond, 20*time.Millisecond),
		cpuFn("c", 7*time.Millisecond),
		sleepFn("d", 2*time.Millisecond, 5*time.Millisecond),
	}
	opt := Options{Procs: 1, Quantum: 5 * time.Millisecond, SpawnCost: 100 * time.Microsecond}
	s := NewSim()
	s.Simulate(specs, opt) // warm every arena
	if avg := testing.AllocsPerRun(100, func() { s.Simulate(specs, opt) }); avg > 0 {
		t.Fatalf("warm Sim.Simulate allocates %.1f allocs/run, want 0", avg)
	}
	// The dispatcher path (sorted admission, worker limit) must also be
	// allocation-free once warm.
	dopt := Options{Procs: 4, Spawn: Dispatcher, Workers: 2, LongestFirst: true,
		SpawnCost: 50 * time.Microsecond}
	s.Simulate(specs, dopt)
	if avg := testing.AllocsPerRun(100, func() { s.Simulate(specs, dopt) }); avg > 0 {
		t.Fatalf("warm dispatcher Simulate allocates %.1f allocs/run, want 0", avg)
	}
	// Jittered runs reseed the Sim's stream on every call; that must not
	// touch the heap either.
	jopt := opt
	jopt.JitterPct = 0.05
	jopt.Seed = 42
	s.Simulate(specs, jopt)
	if avg := testing.AllocsPerRun(100, func() { s.Simulate(specs, jopt) }); avg > 0 {
		t.Fatalf("warm jittered Simulate allocates %.1f allocs/run, want 0", avg)
	}
}

func TestPooledSimulateResultIsCallerOwned(t *testing.T) {
	// The package-level Simulate must return a deep copy: mutating a pooled
	// Sim afterwards (by running it again) must not change the caller's copy.
	specs := []*behavior.Spec{
		sleepFn("a", 3*time.Millisecond, 20*time.Millisecond),
		cpuFn("b", 7*time.Millisecond),
	}
	opt := Options{Procs: 1, Quantum: 5 * time.Millisecond, Record: true}
	res := Simulate(specs, opt)
	total, finish0 := res.Total, res.Threads[0].Finish
	slices0 := append([]Slice(nil), res.Threads[0].Slices...)
	// Churn the pool with different workloads.
	for i := 0; i < 8; i++ {
		Simulate([]*behavior.Spec{cpuFn("z", time.Duration(i+1)*time.Millisecond)}, Options{Procs: 2})
	}
	if res.Total != total || res.Threads[0].Finish != finish0 {
		t.Fatal("pooled Simulate result mutated by later runs")
	}
	for j, s := range slices0 {
		if res.Threads[0].Slices[j] != s {
			t.Fatal("pooled Simulate slices mutated by later runs")
		}
	}
}
