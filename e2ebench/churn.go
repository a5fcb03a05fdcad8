package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"chiron/internal/dag"
	"chiron/internal/obs"
	"chiron/internal/serve"
)

// Operation kinds of churn-mix (sample.kind). Only invocations carry the
// end-to-end latency; the others are timed per kind.
const (
	opInvoke uint8 = iota
	opPlan
	opRollback
	opRegister
	opUnknown
	opScrape
)

var opNames = map[uint8]string{
	opInvoke: "invoke", opPlan: "plan", opRollback: "rollback",
	opRegister: "register", opUnknown: "unknown", opScrape: "scrape",
}

// churnOp is one scheduled operation, drawn from the seed.
type churnOp struct {
	kind    uint8
	wf      string
	expired bool // an invocation whose deadline has already passed
	heavy   bool // a re-registration with heavier behaviour
}

// churnWorkflows are the two workflows churn-mix serves.
var churnWorkflows = []string{"TailHeavy", "MovieReviewing"}

// churnOtherKinds are the operations churn-mix runs beside its
// invocations; each occurs an exact number of times per phase.
var churnOtherKinds = []uint8{opPlan, opRollback, opRegister, opUnknown, opScrape}

// drawChurnOps assigns each of n arrivals an operation. Each kind in
// churnOtherKinds, and already-expired TailHeavy invocations, occur
// exactly each times, at seeded positions; re-registrations alternate
// between the heavier and the original behaviour. Every other arrival
// is a live invocation of TailHeavy or MovieReviewing, drawn evenly.
func drawChurnOps(rng *rand.Rand, n, each int) []churnOp {
	ops := make([]churnOp, n)
	kinds := len(churnOtherKinds) + 1
	if each*kinds > n {
		each = n / kinds
	}
	pos := rng.Perm(n)
	heavy := false
	for k, at := range pos[:each*kinds] {
		switch kind := k / each; {
		case kind == len(churnOtherKinds):
			ops[at] = churnOp{kind: opInvoke, wf: "TailHeavy", expired: true}
		case churnOtherKinds[kind] == opRegister:
			ops[at] = churnOp{kind: opRegister, wf: "MovieReviewing", heavy: heavy}
			heavy = !heavy
		case churnOtherKinds[kind] == opUnknown:
			ops[at] = churnOp{kind: opUnknown, wf: fmt.Sprintf("ghost-%d", rng.Intn(64))}
		default:
			ops[at] = churnOp{kind: churnOtherKinds[kind], wf: churnWorkflows[rng.Intn(len(churnWorkflows))]}
		}
	}
	for _, at := range pos[each*kinds:] {
		ops[at] = churnOp{kind: opInvoke, wf: churnWorkflows[rng.Intn(len(churnWorkflows))]}
	}
	return ops
}

// heavier returns w with every segment 1.6x longer: the same functions,
// so the active plan stays valid, but drift the controller can see.
func heavier(w *dag.Workflow) *dag.Workflow {
	c := w.Clone()
	for _, fn := range c.Functions() {
		for i := range fn.Segments {
			fn.Segments[i].Dur = fn.Segments[i].Dur * 16 / 10
		}
	}
	return c
}

// churnHarness is one built churn-mix system, called in-process.
type churnHarness struct {
	app   *serve.App
	base  map[string]*dag.Workflow
	scale float64
}

func newChurnHarness(r *run) (*churnHarness, error) {
	app := serve.New(serve.Options{
		Scale:          r.wl.Scale,
		MaxConcurrency: 16,
		MaxQueue:       1024,
		HedgeQuantile:  3,
		Reg:            obs.NewRegistry(),
	})
	h := &churnHarness{app: app, base: map[string]*dag.Workflow{}, scale: r.wl.Scale}
	for _, name := range churnWorkflows {
		w, err := builtin(name)
		if err != nil {
			return nil, errors.Join(err, shutdownApp(app))
		}
		h.base[name] = w
		if _, err := app.Register(w); err != nil {
			return nil, errors.Join(err, shutdownApp(app))
		}
		// Two plans: the rollback history is never empty.
		for k := 0; k < 2; k++ {
			if _, err := app.PlanWorkflow(name, 0); err != nil {
				return nil, errors.Join(err, shutdownApp(app))
			}
		}
	}
	// Warm-up: each sender's worth of concurrent requests, so the timed
	// phase starts on warm pools.
	var wg sync.WaitGroup
	errs := make([]error, r.senders)
	for w := 0; w < r.senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10 && errs[w] == nil; i++ {
				for _, name := range churnWorkflows {
					if _, err := app.Invoke(context.Background(), name, nil); err != nil {
						errs[w] = err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up: %w", err), shutdownApp(app))
	}
	return h, nil
}

// deadlineFor is the per-request deadline of a live invocation: far
// beyond the latency limit, so it orders admission without shedding.
const deadlineFor = 2 * time.Second

// do performs one operation and fills its sample. It returns the
// invocation id for completed invocations and an error for any outcome
// that is wrong rather than refused.
func (h *churnHarness) do(op churnOp, s *sample) (uint64, error) {
	s.kind = op.kind
	bg := context.Background()
	switch op.kind {
	case opInvoke:
		ctx, cancel := context.WithTimeout(bg, deadlineFor)
		if op.expired {
			cancel()
			ctx, cancel = context.WithDeadline(bg, time.Now().Add(-time.Millisecond))
		}
		defer cancel()
		res, err := h.app.Invoke(ctx, op.wf, nil)
		if op.expired {
			s.expected = true
			if !errors.Is(err, context.DeadlineExceeded) {
				return 0, fmt.Errorf("%w: expired invocation got %v", errWrongReply, err)
			}
			return 0, nil
		}
		var ov *serve.OverloadError
		switch {
		case err == nil:
		case errors.As(err, &ov), errors.Is(err, context.DeadlineExceeded):
			return 0, nil // refused or shed: a failed attempt
		default:
			return 0, fmt.Errorf("%w: invoke %s: %v", errWrongReply, op.wf, err)
		}
		if res.Workflow != op.wf || res.InvocationID == 0 {
			return 0, fmt.Errorf("%w: workflow %q id %d", errWrongReply, res.Workflow, res.InvocationID)
		}
		s.ok = true
		s.parts = replyParts(invokeReply{QueueWaitMs: res.QueueWaitMs, ColdStartMs: res.ColdStartMs, E2EMs: res.E2EMs}, h.scale)
		return res.InvocationID, nil
	case opPlan:
		_, err := h.app.PlanWorkflow(op.wf, 0)
		s.ok = err == nil
		return 0, err
	case opRollback:
		_, err := h.app.RollbackPlan(op.wf)
		s.ok = err == nil
		return 0, err
	case opRegister:
		w := h.base[op.wf]
		if op.heavy {
			w = heavier(w)
		}
		_, err := h.app.Register(w)
		s.ok = err == nil
		return 0, err
	case opUnknown:
		s.expected = true
		_, err := h.app.Invoke(bg, op.wf, nil)
		if !errors.Is(err, serve.ErrNotFound) {
			return 0, fmt.Errorf("%w: unknown workflow %q got %v", errWrongReply, op.wf, err)
		}
		s.ok = true
		return 0, nil
	case opScrape:
		_, err := counters(h.app.Registry())
		s.ok = err == nil
		return 0, err
	}
	return 0, fmt.Errorf("unknown op kind %d", op.kind)
}

// runChurnMix drives TailHeavy and MovieReviewing in-process with
// hedging and per-request deadlines, beside a seeded schedule of plan
// swaps, re-registrations, unknown-name probes and scrapes.
func runChurnMix(r *run) error {
	var h *churnHarness
	teardown, err := r.setupRepeated(5, func() (func() error, error) {
		var err error
		h, err = newChurnHarness(r)
		if err != nil {
			return nil, err
		}
		return func() error { return shutdownApp(h.app) }, nil
	})
	if err != nil {
		return err
	}
	sv, err := newServingRun(r, h.app, "TailHeavy", "serve.invoke")
	if err != nil {
		return err
	}
	sv.steady = false
	// Each other kind occurs each_kind_per_s times per second of the
	// schedule, as an exact count.
	each := func(n int) int { return int(math.Round(float64(n) * r.wl.EachKindPerS / r.wl.RateRPS)) }
	var ops, fixedOps []churnOp
	sv.prepare = func(a *arrivals) {
		ops = drawChurnOps(r.rng, len(a.due), each(len(a.due)))
		a.extra = cap(ops) * int(unsafe.Sizeof(churnOp{}))
		if fixedOps == nil {
			fixedOps = ops
		}
	}
	var expired int64
	opLat := map[uint8][]float64{}
	var service []float64
	sv.run(func(a *arrivals, traced bool) time.Time {
		start := driveSync(a, r.senders, func(i int, s *sample) {
			id, err := h.do(ops[i], s)
			if err != nil {
				sv.wrong(err)
			}
			a.ids[i] = id
		})
		ss := a.ss
		for i := range ss {
			if ops[i].expired {
				expired++
			}
			service = append(service, ms(ss[i].done-ss[i].sent))
			if k := ss[i].kind; k != opInvoke && ss[i].ok {
				opLat[k] = append(opLat[k], ms(ss[i].done-ss[i].sent))
			}
			if traced && ss[i].kind != opInvoke {
				r.tr.span(pidPlans, int(ss[i].sender), "serve."+opNames[ss[i].kind], "write",
					start.Sub(r.tr.epoch)+ss[i].sent, start.Sub(r.tr.epoch)+ss[i].done)
			}
		}
		return start
	}, nil)
	after, err := counters(h.app.Registry())
	if err != nil {
		return err
	}
	exp := delta(sv.before, after, "chiron_serve_deadline_expired_total")
	r.check("deadline_expired_counted", exp == float64(expired),
		"chiron_serve_deadline_expired_total moved %g, %d expired invocations sent", exp, expired)
	plans := append(append([]float64(nil), opLat[opPlan]...), opLat[opRollback]...)
	r.setLayer("serve.plan_p50_ms", "ms", median(plans))
	r.setLayer("serve.plan_p99_ms", "ms", quantile(plans, 0.99))
	r.notes["op_counts"] = map[string]int{
		"plan": len(opLat[opPlan]), "rollback": len(opLat[opRollback]), "register": len(opLat[opRegister]),
		"unknown": len(opLat[opUnknown]), "scrape": len(opLat[opScrape]),
	}
	// With blocking senders, capacity is senders over the mean time an
	// operation holds one: the basis of rate_rps (workloads.json).
	r.notes["closed_loop_capacity_ops_s"] = share(float64(r.senders), mean(service)/1e3)
	if r.traced {
		if err := kindCPUShares(r, h, fixedOps, sv.fixedCPU); err != nil {
			return err
		}
	}
	return sv.finish(teardown)
}

// kindCPUShares reports the share of the untraced phase's process CPU
// time that each operation kind took. The phase's operations other than
// invocations are replayed one at a time, in the phase's order, after
// the load has stopped; each kind's CPU time per operation, times its
// count in the phase, over the phase's CPU time, is its share. The
// invocations' share is the rest, which includes the benchmark's own
// work.
func kindCPUShares(r *run, h *churnHarness, ops []churnOp, phaseCPU time.Duration) error {
	cpu := map[uint8]time.Duration{}
	count := map[uint8]int{}
	for _, op := range ops {
		if op.kind == opInvoke {
			continue
		}
		var s sample
		c0 := processCPU()
		if _, err := h.do(op, &s); err != nil {
			return fmt.Errorf("replaying %s: %w", opNames[op.kind], err)
		}
		cpu[op.kind] += processCPU() - c0
		count[op.kind]++
	}
	rest := 1.0
	for _, k := range churnOtherKinds {
		sh := share(cpu[k].Seconds(), phaseCPU.Seconds())
		r.setLayer("churn.cpu_share."+opNames[k], "ratio", sh)
		rest -= sh
	}
	r.setLayer("churn.cpu_share.invoke", "ratio", rest)
	return nil
}
