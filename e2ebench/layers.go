package main

import "fmt"

// endToEnd and perLayer are every metric the benchmark reports, with
// units; BENCHMARK.json lists the same names. A traced run reports
// every per-layer metric on every workload, 0 where the workload does
// not exercise the layer.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"cpu_us_per_op", "us"}, {"heap_p90_mb", "MB"},
}

var perLayer = []metricDef{
	{"lat_p10_ms", "ms"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"fail_share", "ratio"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"budget.wait_us", "us"},
	{"budget.client_us", "us"},
	{"budget.ingress_us", "us"},
	{"budget.admission_us", "us"},
	{"budget.pool_us", "us"},
	{"budget.live_us", "us"},
	{"budget.profiler_us", "us"},
	{"budget.pgp_us", "us"},
	{"budget.unattributed_us", "us"},
	{"serve.http.handler_p50_us", "us"},
	{"serve.http.handler_p99_us", "us"},
	{"serve.http.client_us", "us"},
	{"serve.http.self_us", "us"},
	{"udp.self_us", "us"},
	{"serve.invoke.self_us", "us"},
	{"serve.admit_ns", "ns"},
	{"serve.admission.queue_wait_p99_ms", "ms"},
	{"serve.admission.rejected", "count"},
	{"serve.admission.deadline_shed", "count"},
	{"serve.admission.deadline_expired", "count"},
	{"serve.pool.cold_boots", "count"},
	{"serve.pool.cold_cancelled", "count"},
	{"serve.pool.warm_share", "ratio"},
	{"serve.hedge.armed_share", "ratio"},
	{"serve.hedge.win_share", "ratio"},
	{"churn.cpu_share.invoke", "ratio"},
	{"churn.cpu_share.plan", "ratio"},
	{"churn.cpu_share.rollback", "ratio"},
	{"churn.cpu_share.register", "ratio"},
	{"churn.cpu_share.unknown", "ratio"},
	{"churn.cpu_share.scrape", "ratio"},
	{"serve.plan_p50_ms", "ms"},
	{"serve.plan_p99_ms", "ms"},
	{"live.run_p50_us", "us"},
	{"live.run_p99_us", "us"},
	{"live.overhead_us", "us"},
	{"live.allocs_per_run", "count"},
	{"obs.flight.finish_ns", "ns"},
	{"obs.flight.retained_share", "ratio"},
	{"obs.flight.throttled", "count"},
	{"obs.scrape_ms", "ms"},
	{"udp.packet_ns", "ns"},
	{"udp.reply_ns", "ns"},
	{"udp.filtered", "count"},
	{"udp.shed", "count"},
	{"udp.errors", "count"},
	{"adapt.replans", "count"},
	{"adapt.replans_suppressed", "count"},
	{"adapt.rollbacks", "count"},
	{"profiler.profile_us", "us"},
	{"profiler.cache_hit_share", "ratio"},
	{"predict.cache_hit_share", "ratio"},
	{"predict.cache_loads", "count"},
	{"pgp.plan_small_us", "us"},
	{"pgp.plan_finra_us", "us"},
	{"pgp.candidates_per_plan", "count"},
	{"gil.simulate_us", "us"},
	{"engine.request_us", "us"},
	{"sim.events_per_request", "count"},
	{"sim.events_per_s", "1/s"},
	{"experiments.suite_s", "s"},
	{"experiments.table_ms.fig6", "ms"},
	{"experiments.table_ms.fig11", "ms"},
	{"experiments.table_ms.fig13", "ms"},
	{"experiments.table_ms.fig15", "ms"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_pause_p99_us", "us"},
}

type metricDef struct{ name, unit string }

// isEndToEnd reports whether name is a gated end-to-end metric.
func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// complete fills the metrics a workload did not report with 0 and
// rejects any it reported that the lists above do not define.
func complete(m map[string]metric, defs []metricDef) error {
	known := map[string]string{}
	for _, d := range defs {
		known[d.name] = d.unit
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{0, d.unit}
		}
	}
	for name, v := range m {
		if u, ok := known[name]; !ok || u != v.Unit {
			return fmt.Errorf("metric %q (%s) is not defined", name, v.Unit)
		}
	}
	return nil
}
