package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chiron/internal/dag"
	"chiron/internal/engine"
	"chiron/internal/experiments"
	"chiron/internal/gil"
	"chiron/internal/model"
	"chiron/internal/pgp"
	"chiron/internal/platform"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/sim"
	"chiron/internal/workloads"
)

// digests.json records the digest of every deterministic plan-suite
// output: each catalogue entry's plan with its engine ground truth, and
// each quick table. Regenerate it with --record-digests after a change
// that is meant to alter plans or tables.
//
//go:embed digests.json
var digestsJSON []byte

type digests struct {
	Plans  map[string]string `json:"plans"`
	Tables map[string]string `json:"tables"`
}

// planWorkflows are the Suite workflows plan-suite plans; FINRA-200 is
// left out because one cold plan of it outweighs the rest of a round.
var planWorkflows = []string{
	"SocialNetwork", "MovieReviewing", "SLApp", "SLApp-V", "FINRA-5", "FINRA-50", "FINRA-100",
}

// sloLevels multiply each workflow's latency-optimal prediction into
// the SLOs of its plan requests.
var sloLevels = []float64{1.1, 1.5, 2.5}

// suiteTables are the quick evaluation tables regenerated each round.
var suiteTables = []string{"fig6", "fig11", "fig13", "fig15"}

// engineChecks is how many ground-truth requests check each plan.
const engineChecks = 3

// planReq is one catalogue entry: a workflow and an SLO.
type planReq struct {
	key string // workflow@level, the digest key
	w   *dag.Workflow
	slo time.Duration
}

// buildCatalogue builds the suite and derives each workflow's SLOs from
// its latency-optimal plan.
func buildCatalogue() ([]planReq, error) {
	var cat []planReq
	byName := map[string]*dag.Workflow{}
	for _, e := range workloads.Suite() {
		byName[e.Name] = e.Workflow
	}
	for _, name := range planWorkflows {
		w := byName[name]
		set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		res, err := pgp.Plan(w, set, pgp.Options{Const: model.Default()})
		if err != nil {
			return nil, err
		}
		for _, lv := range sloLevels {
			slo := time.Duration(float64(res.Predicted) * lv).Round(time.Microsecond)
			cat = append(cat, planReq{key: fmt.Sprintf("%s@%.1f", name, lv), w: w, slo: slo})
		}
	}
	return cat, nil
}

// planOutcome is one executed plan request.
type planOutcome struct {
	profile, plan time.Duration // profiler.ProfileWorkflow, pgp.Plan
	check         time.Duration // engine.Run ground truth
	candidates    int
	fired         uint64 // sim events fired by the checks
	digest        string
	start         time.Time
}

// doPlan profiles and plans one request and checks the plan with
// engine.Run ground-truth requests.
func doPlan(req planReq) (planOutcome, error) {
	var o planOutcome
	o.start = time.Now()
	set, err := profiler.ProfileWorkflow(req.w, profiler.DefaultOptions())
	if err != nil {
		return o, err
	}
	t1 := time.Now()
	res, err := pgp.Plan(req.w, set, pgp.Options{Const: model.Default(), SLO: req.slo})
	if err != nil {
		return o, err
	}
	t2 := time.Now()
	o.profile, o.plan, o.candidates = t1.Sub(o.start), t2.Sub(t1), len(res.Trace)

	env := platform.Chiron(model.Default()).Env()
	truth := make([]time.Duration, engineChecks)
	f0 := sim.TotalFired()
	for k := range truth {
		env.Seed = int64(k + 1)
		er, err := engine.Run(req.w, res.Plan, env)
		if err != nil {
			return o, fmt.Errorf("engine check of %s: %w", req.key, err)
		}
		truth[k] = er.E2E
	}
	o.check, o.fired = time.Since(t2), sim.TotalFired()-f0
	b, err := json.Marshal(struct {
		Plan      interface{}
		Predicted time.Duration
		MeetsSLO  bool
		Truth     []time.Duration
	}{res.Plan, res.Predicted, res.MeetsSLO, truth})
	if err != nil {
		return o, err
	}
	o.digest = digestOf(b)
	return o, nil
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// tableDigest regenerates one quick table and digests its text.
func tableDigest(id string) (string, error) {
	t, err := experiments.Run(id, experiments.Config{Const: model.Default(), Seed: 1, Quick: true})
	if err != nil {
		return "", err
	}
	return digestOf([]byte(t.String())), nil
}

// recordDigests rewrites digests.json in the benchmark's directory.
func recordDigests() error {
	cat, err := buildCatalogue()
	if err != nil {
		return err
	}
	d := digests{Plans: map[string]string{}, Tables: map[string]string{}}
	for _, req := range cat {
		o, err := doPlan(req)
		if err != nil {
			return err
		}
		d.Plans[req.key] = o.digest
	}
	for _, id := range suiteTables {
		if d.Tables[id], err = tableDigest(id); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("e2ebench", "digests.json"), append(b, '\n'), 0o644)
}

// suiteRound is one round's measurements.
type suiteRound struct {
	plans  []planOutcome
	keys   []string
	tables map[string]time.Duration
	suite  time.Duration
	wall   time.Duration // the whole round: plans, checks and tables
}

// runRound purges the caches, runs the seeded sequence of plan requests
// (each catalogue entry twice, so first occurrences run cold and repeats
// warm) and regenerates the quick tables, checking every digest.
func runRound(r *run, cat []planReq, want digests) (suiteRound, error) {
	predict.PurgeExecCache()
	profiler.PurgeCache()
	seq := append(append([]planReq(nil), cat...), cat...)
	r.rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	var rd suiteRound
	began := time.Now()
	for _, req := range seq {
		o, err := doPlan(req)
		if err != nil {
			return rd, err
		}
		r.attempted++
		if o.digest != want.Plans[req.key] {
			r.failed++
			r.check("plan_digest", false, "%s: plan digest %s, recorded %s", req.key, o.digest, want.Plans[req.key])
		}
		rd.plans = append(rd.plans, o)
		rd.keys = append(rd.keys, req.key)
	}
	rd.tables = map[string]time.Duration{}
	t0 := time.Now()
	for _, id := range suiteTables {
		t := time.Now()
		d, err := tableDigest(id)
		if err != nil {
			return rd, err
		}
		rd.tables[id] = time.Since(t)
		r.attempted++
		if d != want.Tables[id] {
			r.failed++
			r.check("table_digest", false, "%s: table digest %s, recorded %s", id, d, want.Tables[id])
		}
	}
	rd.suite = time.Since(t0)
	rd.wall = time.Since(began)
	return rd, nil
}

// suitePhase is a run of rounds with what the runtime watch saw.
type suitePhase struct {
	rounds     []suiteRound
	st         runtimeStats
	start, end time.Time
}

// planLat is every plan request's wall time (profile + plan), in ms.
func (p suitePhase) planLat() []float64 {
	var out []float64
	for _, rd := range p.rounds {
		for _, o := range rd.plans {
			out = append(out, ms(o.profile+o.plan))
		}
	}
	return out
}

// runPlanSuite is the offline workload: rounds of seeded plan requests
// and quick tables until the run's time is spent.
func runPlanSuite(r *run) error {
	var want digests
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	var cat []planReq
	if _, err := r.setupRepeated(15, func() (func() error, error) {
		var err error
		cat, err = buildCatalogue()
		return func() error { return nil }, err
	}); err != nil {
		return err
	}
	// rounds runs rounds for at least d (and at least one round).
	rounds := func(d time.Duration) (suitePhase, error) {
		w := watchRuntime()
		p := suitePhase{start: time.Now()}
		for len(p.rounds) == 0 || time.Since(p.start) < d {
			rd, err := runRound(r, cat, want)
			if err != nil {
				w.finish()
				return p, err
			}
			p.rounds = append(p.rounds, rd)
		}
		p.end, p.st = time.Now(), w.finish()
		return p, nil
	}
	first := r.seconds
	if r.traced {
		first = r.seconds / 2
	}
	p0, err := rounds(first)
	if err != nil {
		return err
	}
	lat := p0.planLat()
	r.setLayer("lat_p10_ms", "ms", quantile(lat, 0.1))
	r.setLayer("lat_p50_ms", "ms", median(lat))
	r.setLayer("lat_p99_ms", "ms", quantile(lat, 0.99))
	// Goodput is the median over rounds of each round's rate: a stall the
	// host imposes on one round moves that round only.
	var rates []float64
	ops := 0
	for _, rd := range p0.rounds {
		rates = append(rates, share(float64(len(rd.plans)), rd.wall.Seconds()))
		ops += len(rd.plans) + len(rd.tables)
	}
	r.setLayer("goodput_rps", "1/s", median(rates))
	r.notes["rounds"] = len(p0.rounds)
	r.notes["lat_samples"] = len(lat)
	r.notes["steal_share"] = p0.st.stealShare()
	if !r.traced {
		r.setE2E("cpu_us_per_op", "us", share(us(p0.st.CPU), float64(ops)))
		r.setE2E("heap_p90_mb", "MB", p0.st.HeapP90MB)
		r.check("digests_match", r.failed == 0, "%d of %d outputs differ from digests.json", r.failed, r.attempted)
		return nil
	}

	r.tr = newTracer(time.Now())
	e0, c0 := predict.ExecCacheStats(), profiler.CacheStats()
	p1, err := rounds(r.seconds / 2)
	if err != nil {
		return err
	}
	e1, c1 := predict.ExecCacheStats(), profiler.CacheStats()
	r.runtimeLayers(p1.st)
	r.planLayers(p1.rounds, cat)
	r.setLayer("trace.overhead_share", "ratio", share(median(p1.planLat()), median(lat)))
	r.setLayer("fail_share", "ratio", share(float64(r.failed), float64(r.attempted)))
	hits, misses := float64(e1.Hits-e0.Hits), float64(e1.Misses-e0.Misses)
	r.setLayer("predict.cache_hit_share", "ratio", share(hits, hits+misses))
	r.setLayer("predict.cache_loads", "count", misses-float64(e1.Shared-e0.Shared))
	ph, pm := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	r.setLayer("profiler.cache_hit_share", "ratio", share(ph, ph+pm))
	gilProbe(r, cat)
	path, err := r.tr.write(r.name, r.seed)
	if err != nil {
		return err
	}
	r.notes["trace_file"] = path
	r.check("digests_match", r.failed == 0, "%d of %d outputs differ from digests.json", r.failed, r.attempted)
	return nil
}

// planLayers records the traced rounds' spans and reports the planner
// and reproduction layers' metrics.
func (r *run) planLayers(rs []suiteRound, cat []planReq) {
	tr := r.tr
	size := map[string]int{}
	for _, c := range cat {
		size[c.key] = c.w.NumFunctions()
	}
	var prof, small, finra, cands, eng, events []float64
	var checkWall time.Duration
	var fired uint64
	b := newBudget("profiler", "pgp")
	var lat []float64
	var all []planOutcome
	for _, rd := range rs {
		for i, o := range rd.plans {
			all = append(all, o)
			lat = append(lat, us(o.profile+o.plan))
			prof = append(prof, us(o.profile))
			if n := size[rd.keys[i]]; n <= 10 {
				small = append(small, us(o.plan))
			} else if n >= 100 {
				finra = append(finra, us(o.plan))
			}
			cands = append(cands, float64(o.candidates))
			eng = append(eng, us(o.check)/engineChecks)
			events = append(events, float64(o.fired)/engineChecks)
			checkWall += o.check
			fired += o.fired
			s := tr.at(o.start)
			tr.span(pidPlans, 1, "plan "+rd.keys[i], "request", s, s+o.profile+o.plan+o.check)
			tr.span(pidPlans, 1, "profiler.ProfileWorkflow", "profiler", s, s+o.profile)
			tr.span(pidPlans, 1, "pgp.Plan", "pgp", s+o.profile, s+o.profile+o.plan)
			tr.span(pidPlans, 1, "engine.Run x3", "engine", s+o.profile+o.plan, s+o.profile+o.plan+o.check)
		}
	}
	for _, j := range p50Band(lat) {
		o := all[j]
		b.add(us(o.profile+o.plan), map[string]float64{"profiler": us(o.profile), "pgp": us(o.plan)})
	}
	b.report(r)
	var suite []float64
	tables := map[string][]float64{}
	for _, rd := range rs {
		suite = append(suite, rd.suite.Seconds())
		for id, d := range rd.tables {
			tables[id] = append(tables[id], ms(d))
		}
	}
	r.setLayer("profiler.profile_us", "us", median(prof))
	r.setLayer("pgp.plan_small_us", "us", median(small))
	r.setLayer("pgp.plan_finra_us", "us", median(finra))
	r.setLayer("pgp.candidates_per_plan", "count", mean(cands))
	r.setLayer("engine.request_us", "us", median(eng))
	r.setLayer("sim.events_per_request", "count", mean(events))
	r.setLayer("sim.events_per_s", "1/s", share(float64(fired), checkWall.Seconds()))
	r.setLayer("experiments.suite_s", "s", median(suite))
	for _, id := range suiteTables {
		r.setLayer("experiments.table_ms."+id, "ms", median(tables[id]))
	}
}

// gilProbe times gil.Simulate on each planned workflow's widest stage,
// with the single-core GIL options of the paper's thread model.
func gilProbe(r *run, cat []planReq) {
	var took []float64
	seen := map[*dag.Workflow]bool{}
	p0 := time.Now()
	for _, c := range cat {
		if seen[c.w] {
			continue
		}
		seen[c.w] = true
		widest := c.w.Stages[0].Functions
		for _, st := range c.w.Stages {
			if len(st.Functions) > len(widest) {
				widest = st.Functions
			}
		}
		opt := gil.Options{Procs: 1, Quantum: 5 * time.Millisecond, Spawn: gil.MainThread,
			SpawnBatch: 8, SpawnCost: 300 * time.Microsecond}
		took = append(took, timeProbe(20, func() { gil.Simulate(widest, opt) })...)
	}
	r.tr.span(pidProbes, 6, "gil.Simulate widest stages", "probe", r.tr.at(p0), r.tr.at(time.Now()))
	r.setLayer("gil.simulate_us", "us", median(took)/1e3)
}
