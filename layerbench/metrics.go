package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_kb_per_job", "KiB"},
	{"allocs_per_job", "count"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the single-layer metrics, reported by traced runs. A layer
// a workload does not exercise reports 0 (see README.md for which
// workload moves which metric).
var perLayer = []metricDef{
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.alloc_bytes_per_event", "B"},
	{"sim.events_per_job", "count"},
	{"sim.scheduled_per_job", "count"},
	{"sim.canceled_per_job", "count"},
	{"sim.delta_cycles_per_job", "count"},
	{"sim.queue_hwm_max", "count"},
	{"sim.self_ms_per_job", "ms"},
	{"netlist.parse_ms_per_job", "ms"},
	{"netlist.build_ms_per_job", "ms"},
	{"netlist.self_ms_per_job", "ms"},
	{"gc.cpu_ms_per_job", "ms"},
	{"gc.cycles_per_job", "count"},
	{"fault.self_ms_per_job", "ms"},
	{"fault.attempts_per_job", "count"},
	{"cluster.execute_ms_p50", "ms"},
	{"cluster.execute_ms_p99", "ms"},
	{"cluster.self_ms_per_job", "ms"},
	{"cluster.requests_per_job", "count"},
	{"cluster.remote_cache_hit_ratio", "ratio"},
	{"cluster.lake_dedup_ratio", "ratio"},
	{"cluster.journal_rows", "count"},
	{"http.roundtrip_ms_p50", "ms"},
	{"http.roundtrip_ms_p99", "ms"},
	{"http.self_ms_per_job", "ms"},
	{"http.req_bytes_per_job", "B"},
	{"http.resp_bytes_per_job", "B"},
	{"server.self_ms_per_job", "ms"},
	{"server.handler_ms_p50.fresh", "ms"},
	{"server.handler_ms_p50.lake", "ms"},
	{"server.handler_ms_p50.mem", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p99", "ms"},
	{"server.sim_run_ms_p50", "ms"},
	{"server.cache_hits_mem", "count"},
	{"server.cache_hits_lake", "count"},
	{"server.cache_misses", "count"},
	{"server.sheds", "count"},
	{"lake.open_ms", "ms"},
	{"lake.puts", "count"},
	{"lake.hits", "count"},
	{"lake.bytes_per_entry", "B"},
	{"lake.corrupt", "count"},
	{"bench.self_ms_per_job", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_per_job", "count"},
	{"trace.unattributed_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// render keeps exactly the metrics of defs, in the units defs gives; a
// metric missing from values reports 0.
func render(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
