package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestCatalogMatchesBenchmarkJSON);
// README.md gives each one's layer and the end-to-end metric it moves.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"items_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"success_frac", "ratio", "higher"},
}

// programs lists the train workload's per-program metric suffixes.
var programs = []string{"lenet", "lstm", "treelstm"}

// spanNames are the span names the benchmark records, one per call it makes
// into a layer; each gets a "<span>.self_ms" per-layer metric.
var spanNames = []string{
	"bench.step", "bench.setup", "minipy.parse", "core.load", "core.step",
	"bench.request", "http.client", "serve.handler", "janus.call",
	"bench.round", "ps.worker_step", "ps.compute", "ps.pull", "ps.push",
}

// perLayer metrics are printed by every traced run, on every workload; a
// layer the workload does not use reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.latency_p99_ms", "ms", "lower"},
		{"serve.batch_wait_ms_p50", "ms", "lower"},
		{"serve.timer_flush_ratio", "ratio", "lower"},
		{"serve.batch_size_mean", "count", "higher"},
		{"serve.outside_graph_ms_p50", "ms", "lower"},
		{"serve.acquire_wait_ms_p99", "ms", "lower"},
		{"serve.rejected", "count", "lower"},
		{"serve.gen_late_ms_p99", "ms", "lower"},
		{"serve.slo_rps", "1/s", "higher"},
		{"core.cache_hit_ratio", "ratio", "higher"},
		{"core.conversions", "count", "lower"},
		{"core.fallbacks", "count", "lower"},
		{"core.graph_step_ratio", "ratio", "higher"},
		{"core.ref_max_rel_diff", "ratio", "lower"},
		{"core.ref_grad_max_rel_diff", "ratio", "lower"},
		{"minipy.parse_ms", "ms", "lower"},
		{"minipy.imperative_ms", "ms", "lower"},
		{"convert.ms", "ms", "lower"},
		{"passes.ms", "ms", "lower"},
		{"passes.rewrites", "count", "higher"},
		{"passes.nodes", "count", "lower"},
		{"exec.plan_build_ms", "ms", "lower"},
		{"exec.execute_ms_per_step", "ms", "lower"},
		{"exec.op_calls_per_step", "count", "lower"},
		{"exec.inplace_per_step", "count", "higher"},
		{"tensor.conv_ms_per_step", "ms", "lower"},
		{"tensor.matmul_ms_per_step", "ms", "lower"},
		{"tensor.pool_hit_ratio", "ratio", "higher"},
		{"tensor.allocs_per_step", "count", "lower"},
		{"ps.pull_ms_p50", "ms", "lower"},
		{"ps.push_ms_p50", "ms", "lower"},
		{"ps.server_push_ms_p50", "ms", "lower"},
		{"ps.bytes_per_step", "B", "lower"},
		{"ps.rpcs_per_step", "count", "lower"},
		{"ps.retries", "count", "lower"},
		{"ps.stale_drops", "count", "lower"},
		{"ps.worker_compute_ms_p50", "ms", "lower"},
		{"ps.exposed_comm_ms_per_round", "ms", "lower"},
		{"obs.trace_overhead_ratio", "ratio", "lower"},
	}
	for _, p := range programs {
		defs = append(defs,
			metricDef{"train.items_per_s." + p, "1/s", "higher"},
			metricDef{"core.ref_max_rel_diff." + p, "ratio", "lower"},
			metricDef{"core.ref_grad_max_rel_diff." + p, "ratio", "lower"},
			metricDef{"exec.execute_ms_per_step." + p, "ms", "lower"},
			metricDef{"tensor.allocs_per_step." + p, "count", "lower"})
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{s + ".self_ms", "ms", "lower"})
	}
	return defs
}()
