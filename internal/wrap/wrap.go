// Package wrap defines the paper's central abstraction (Section 3.1): the
// deployment plan that maps a workflow's m functions onto n sandboxes
// ("wraps"), and within each sandbox onto processes and threads.
//
// A Plan assigns every function a location (sandbox, process). Functions
// sharing a (sandbox, process) pair run as threads of that process;
// distinct process indices within a sandbox are forked processes; distinct
// sandboxes interact over the network. Process index 0 is special: it is
// the sandbox's resident main process (the orchestrator / of-watchdog
// worker), so functions placed there pay thread-clone startup rather than
// fork startup.
//
// Every deployment model in the paper is a special case:
//
//   - one-to-one: each function alone in its own sandbox;
//   - many-to-one (SAND): one sandbox, every function its own forked
//     process;
//   - many-to-one (Faastlane): one sandbox, sequential functions as
//     threads of process 0, parallel functions as forked processes;
//   - m-to-n (Chiron): PGP's output, mixing all of the above.
package wrap

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/sandbox"
)

// ErrPlacement marks every plan-shape failure — a function without a
// placement, an out-of-range sandbox, mixed runtimes, a plan/workflow
// mismatch. Callers classify with errors.Is(err, wrap.ErrPlacement)
// instead of matching error text; the serving gateway maps it to a
// stale-plan response.
var ErrPlacement = errors.New("wrap: invalid placement")

// Loc is one function's placement.
type Loc struct {
	// Sandbox is the global wrap index (0 = the sandbox that hosts the
	// workflow orchestrator and receives the request).
	Sandbox int `json:"sandbox"`
	// Proc is the process index within the sandbox; 0 is the resident
	// main process.
	Proc int `json:"proc"`
}

// IsolationKind names the thread isolation mechanism of a sandbox.
type IsolationKind string

// Supported isolation mechanisms (Section 4, Table 1).
const (
	IsoNone IsolationKind = "none"
	IsoMPK  IsolationKind = "mpk"
	IsoSFI  IsolationKind = "sfi"
)

// SandboxCfg configures one sandbox of the plan.
type SandboxCfg struct {
	// CPUs is the cpuset reservation (>= 1).
	CPUs int `json:"cpus"`
	// Pool runs this sandbox's functions on a warm process pool instead
	// of per-request forks (Section 4 "True Parallelism").
	Pool bool `json:"pool,omitempty"`
	// Workers is the pool size (Pool only; 0 = one per function).
	Workers int `json:"workers,omitempty"`
	// LongestFirst admits pool tasks longest-first to counter execution
	// skew (Chiron-P, Section 6.2).
	LongestFirst bool `json:"longest_first,omitempty"`
	// Iso selects the thread isolation mechanism.
	Iso IsolationKind `json:"iso,omitempty"`
	// ForkPerRequest forks a fresh process per function invocation even
	// for process 0 (classic-watchdog semantics); used as an ablation.
	ForkPerRequest bool `json:"fork_per_request,omitempty"`
}

// Plan is a complete deployment of one workflow.
type Plan struct {
	// Workflow names the workflow this plan deploys.
	Workflow string `json:"workflow"`
	// Loc maps function name -> placement.
	Loc map[string]Loc `json:"loc"`
	// Sandboxes configures each wrap, indexed by Loc.Sandbox.
	Sandboxes []SandboxCfg `json:"sandboxes"`
}

// NumWraps returns n: the number of sandboxes.
func (p *Plan) NumWraps() int { return len(p.Sandboxes) }

// TotalCPUs returns the plan's total CPU reservation (Figure 17's metric).
func (p *Plan) TotalCPUs() int {
	n := 0
	for _, s := range p.Sandboxes {
		n += s.CPUs
	}
	return n
}

// ProcGroup is one process of one wrap within one stage: the functions
// that run as its threads, in placement order.
type ProcGroup struct {
	// Proc is the process index within the sandbox.
	Proc int
	// Functions are the hosted function specs.
	Functions []*behavior.Spec
}

// StageWrap is the portion of one wrap active during one stage.
type StageWrap struct {
	// Sandbox is the wrap's global index.
	Sandbox int
	// Cfg is the wrap's sandbox configuration.
	Cfg SandboxCfg
	// Procs are the active process groups, ordered by process index.
	Procs []ProcGroup
}

// Processes returns the wrap's functions grouped per process, the shape
// package proc executes.
func (sw *StageWrap) Processes() [][]*behavior.Spec {
	out := make([][]*behavior.Spec, len(sw.Procs))
	for i, g := range sw.Procs {
		out[i] = g.Functions
	}
	return out
}

// HasMainProc reports whether process index 0 participates (its functions
// pay thread startup, not fork startup).
func (sw *StageWrap) HasMainProc() bool {
	return len(sw.Procs) > 0 && sw.Procs[0].Proc == 0
}

// StageWraps groups stage i's functions by wrap and process. Wraps are
// ordered by sandbox index (so index 0, when present, is the orchestrator's
// own sandbox, the paper's wrap1); processes by process index; functions by
// their order within the stage.
func (p *Plan) StageWraps(w *dag.Workflow, stage int) ([]StageWrap, error) {
	if stage < 0 || stage >= len(w.Stages) {
		return nil, fmt.Errorf("%w: stage %d out of range", ErrPlacement, stage)
	}
	bySandbox := make(map[int]map[int][]*behavior.Spec)
	for _, fn := range w.Stages[stage].Functions {
		loc, ok := p.Loc[fn.Name]
		if !ok {
			return nil, fmt.Errorf("%w: function %q has no placement", ErrPlacement, fn.Name)
		}
		if loc.Sandbox < 0 || loc.Sandbox >= len(p.Sandboxes) {
			return nil, fmt.Errorf("%w: function %q placed in unknown sandbox %d", ErrPlacement, fn.Name, loc.Sandbox)
		}
		m := bySandbox[loc.Sandbox]
		if m == nil {
			m = make(map[int][]*behavior.Spec)
			bySandbox[loc.Sandbox] = m
		}
		m[loc.Proc] = append(m[loc.Proc], fn)
	}
	sandboxes := make([]int, 0, len(bySandbox))
	for sb := range bySandbox {
		sandboxes = append(sandboxes, sb)
	}
	sort.Ints(sandboxes)
	out := make([]StageWrap, 0, len(sandboxes))
	for _, sb := range sandboxes {
		sw := StageWrap{Sandbox: sb, Cfg: p.Sandboxes[sb]}
		procs := make([]int, 0, len(bySandbox[sb]))
		for pr := range bySandbox[sb] {
			procs = append(procs, pr)
		}
		sort.Ints(procs)
		sw.Procs = make([]ProcGroup, 0, len(procs))
		for _, pr := range procs {
			sw.Procs = append(sw.Procs, ProcGroup{Proc: pr, Functions: bySandbox[sb][pr]})
		}
		out = append(out, sw)
	}
	return out, nil
}

// Validate checks the plan against its workflow: every function placed
// exactly once in an existing sandbox, positive CPU reservations, a single
// runtime per sandbox (Section 3.4: "conflict between language runtimes"),
// and no two functions of one sandbox writing the same file ("functions
// that need to process the same file cannot share sandbox").
func (p *Plan) Validate(w *dag.Workflow) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if p.Workflow != w.Name {
		return fmt.Errorf("%w: plan is for workflow %q, not %q", ErrPlacement, p.Workflow, w.Name)
	}
	if len(p.Sandboxes) == 0 {
		return fmt.Errorf("%w: plan has no sandboxes", ErrPlacement)
	}
	for i, cfg := range p.Sandboxes {
		if cfg.CPUs < 1 {
			return fmt.Errorf("%w: sandbox %d reserves %d CPUs", ErrPlacement, i, cfg.CPUs)
		}
		switch cfg.Iso {
		case "", IsoNone, IsoMPK, IsoSFI:
		default:
			return fmt.Errorf("%w: sandbox %d has unknown isolation %q", ErrPlacement, i, cfg.Iso)
		}
		if cfg.Workers < 0 {
			return fmt.Errorf("%w: sandbox %d has negative pool size", ErrPlacement, i)
		}
	}

	runtimes := make(map[int]behavior.Runtime)
	files := make(map[int]map[string]string) // sandbox -> file -> function
	used := make(map[int]bool)
	for _, fn := range w.Functions() {
		loc, ok := p.Loc[fn.Name]
		if !ok {
			return fmt.Errorf("%w: function %q has no placement", ErrPlacement, fn.Name)
		}
		if loc.Sandbox < 0 || loc.Sandbox >= len(p.Sandboxes) {
			return fmt.Errorf("%w: function %q placed in unknown sandbox %d", ErrPlacement, fn.Name, loc.Sandbox)
		}
		if loc.Proc < 0 {
			return fmt.Errorf("%w: function %q has negative process index", ErrPlacement, fn.Name)
		}
		used[loc.Sandbox] = true
		if rt, ok := runtimes[loc.Sandbox]; ok && rt != fn.Runtime {
			return fmt.Errorf("%w: sandbox %d mixes runtimes %s and %s", ErrPlacement, loc.Sandbox, rt, fn.Runtime)
		}
		runtimes[loc.Sandbox] = fn.Runtime
		for _, f := range fn.Files {
			m := files[loc.Sandbox]
			if m == nil {
				m = make(map[string]string)
				files[loc.Sandbox] = m
			}
			if other, dup := m[f]; dup {
				return fmt.Errorf("%w: functions %q and %q both write %s in sandbox %d", ErrPlacement, other, fn.Name, f, loc.Sandbox)
			}
			m[f] = fn.Name
		}
	}
	for name := range p.Loc {
		if w.Lookup(name) == nil {
			return fmt.Errorf("%w: plan places unknown function %q", ErrPlacement, name)
		}
	}
	for i := range p.Sandboxes {
		if !used[i] {
			return fmt.Errorf("%w: sandbox %d hosts no functions", ErrPlacement, i)
		}
	}
	return nil
}

// Ledgers builds the per-sandbox resource ledger for the whole plan: a
// sandbox's resident processes are the union over stages (process indices
// are persistent identities within a request's lifetime).
func (p *Plan) Ledgers(w *dag.Workflow) ([]*sandbox.Sandbox, error) {
	if err := p.Validate(w); err != nil {
		return nil, err
	}
	type key struct{ sb, proc int }
	threads := make(map[key]int)
	fnMem := make(map[int]float64)
	rts := make(map[int]behavior.Runtime)
	for _, fn := range w.Functions() {
		loc := p.Loc[fn.Name]
		threads[key{loc.Sandbox, loc.Proc}]++
		fnMem[loc.Sandbox] += fn.MemMB
		rts[loc.Sandbox] = fn.Runtime
	}
	out := make([]*sandbox.Sandbox, len(p.Sandboxes))
	for i, cfg := range p.Sandboxes {
		s := &sandbox.Sandbox{
			Runtime: rts[i],
			Pool:    cfg.Pool,
			CPUs:    cfg.CPUs,
			FnMemMB: fnMem[i],
		}
		procIdx := make([]int, 0)
		for k := range threads {
			if k.sb == i {
				procIdx = append(procIdx, k.proc)
			}
		}
		sort.Ints(procIdx)
		if cfg.Pool {
			// Pool sandboxes keep Workers resident workers regardless of
			// logical function grouping (default: one per function).
			workers := cfg.Workers
			if workers == 0 {
				for _, pr := range procIdx {
					workers += threads[key{i, pr}]
				}
			}
			for j := 0; j < workers; j++ {
				s.Procs = append(s.Procs, sandbox.Proc{Threads: 1})
			}
		} else {
			for _, pr := range procIdx {
				s.Procs = append(s.Procs, sandbox.Proc{Threads: threads[key{i, pr}]})
			}
		}
		out[i] = s
	}
	return out, nil
}

// MarshalJSON/UnmarshalJSON round-trip plans for the CLI.
func (p *Plan) MarshalJSON() ([]byte, error) {
	type alias Plan
	return json.Marshal((*alias)(p))
}

// UnmarshalJSON decodes a plan (validation requires the workflow and is
// done separately).
func (p *Plan) UnmarshalJSON(b []byte) error {
	type alias Plan
	return json.Unmarshal(b, (*alias)(p))
}
