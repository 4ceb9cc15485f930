package main

// metricDef declares one metric the benchmark prints. The tables below are
// the single source of names, units and bounds: BENCHMARK.json repeats them
// for the driver, and the smoke test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare calls it "worse". Per-layer metrics carry none.
	Bound float64
}

// endToEnd is what a user of the system sees; every workload reports all of
// it from the untraced measured window. fail_ratio from the issue's table is
// not a metric here: the contract forbids metrics that read 0, so failures
// travel as the result's attempted/failed counts instead.
//
// The count bounds are about three times the widest spread (interquartile
// range over median) seen across ten seeds on the builder's machine. The
// timing bounds are the contract's maximum: that machine's speed drifts by
// 30-50 % over minutes whatever runs on it, so no honest wall-clock bound
// holds there, and the counts are the gate that means something
// (benchmark/README.md records the spreads).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.04},
	{"alloc_kb_per_op", "KB", "lower", 0.04},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every metric of a single layer, named <package>.<what>. A
// traced run prints all of them; one that reads 0 belongs to a layer the
// workload does not exercise (or, for a p99, has too few samples).
var perLayer = []metricDef{
	// Harness and runtime, all workloads.
	{Name: "bench.ops", Unit: "count", Better: "higher"},
	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.round_spread_pct", Unit: "%", Better: "lower"},
	{Name: "bench.check_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "1/s", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	// sim-replay: spans, then rungs.
	{Name: "scenario.build_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.build_allocs", Unit: "count", Better: "lower"},
	{Name: "netsim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netsim.pkts_per_op", Unit: "count", Better: "higher"},
	{Name: "eventq.events_per_op", Unit: "count", Better: "lower"},
	{Name: "eventq.pending_peak", Unit: "count", Better: "lower"},
	{Name: "switchagent.stage_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "switchagent.stage_ns", Unit: "ns", Better: "lower"},
	{Name: "switchagent.stage_share_pct", Unit: "%", Better: "lower"},
	{Name: "eventq.step_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.step_allocs", Unit: "count", Better: "lower"},
	{Name: "eventq.fresh_run_allocs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "netsim.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.forward_allocs", Unit: "count", Better: "lower"},
	{Name: "mph.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "pointer.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "pointer.advance_us", Unit: "us", Better: "lower"},
	{Name: "header.embed_ns", Unit: "ns", Better: "lower"},
	{Name: "header.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "flowrec.absorb_ns", Unit: "ns", Better: "lower"},
	{Name: "store.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "store.new_us", Unit: "us", Better: "lower"},
	{Name: "store.new_allocs", Unit: "count", Better: "lower"},

	// diag-inmem: the analyzer procedures with no wire.
	{Name: "analyzer.run_us.priority", Unit: "us", Better: "lower"},
	{Name: "analyzer.run_us.microburst", Unit: "us", Better: "lower"},
	{Name: "analyzer.run_us.redlights", Unit: "us", Better: "lower"},
	{Name: "analyzer.run_us.cascade", Unit: "us", Better: "lower"},
	{Name: "analyzer.run_us.loadimbalance", Unit: "us", Better: "lower"},
	{Name: "analyzer.run_us.topk", Unit: "us", Better: "lower"},
	{Name: "analyzer.dir_rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "analyzer.host_rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "analyzer.hosts_contacted_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.cost_us_per_op", Unit: "us", Better: "lower"},
	{Name: "switchagent.pull_us", Unit: "us", Better: "lower"},
	{Name: "pointer.query_us", Unit: "us", Better: "lower"},
	{Name: "hostagent.query_topk_us", Unit: "us", Better: "lower"},
	{Name: "hostagent.query_flowsizes_us", Unit: "us", Better: "lower"},
	{Name: "store.query_by_switch_ns_per_rec", Unit: "ns", Better: "lower"},

	// Every diag-* workload.
	{Name: "analyzer.run_us", Unit: "us", Better: "lower"},
	{Name: "analyzer.self_us", Unit: "us", Better: "lower"},
	{Name: "analyzer.dir_round_us", Unit: "us", Better: "lower"},
	{Name: "analyzer.host_round_us", Unit: "us", Better: "lower"},
	{Name: "hostagent.query_headers_us", Unit: "us", Better: "lower"},

	// diag-fanout and diag-heavy: the loopback trio.
	{Name: "cluster.diagnose_server_us", Unit: "us", Better: "lower"},
	{Name: "cluster.client_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.admission_us", Unit: "us", Better: "lower"},
	{Name: "cluster.encode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.report_bytes", Unit: "B", Better: "lower"},
	{Name: "rpc.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "rpc.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "rpc.roundtrip_us.switch", Unit: "us", Better: "lower"},
	{Name: "rpc.roundtrip_us.host", Unit: "us", Better: "lower"},
	{Name: "rpc.body_read_us", Unit: "us", Better: "lower"},
	{Name: "rpc.wire_us", Unit: "us", Better: "lower"},
	{Name: "rpc.conns_opened_per_kop", Unit: "count", Better: "lower"},
	{Name: "rpc.json_encode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "rpc.json_decode_us_per_op", Unit: "us", Better: "lower"},
	{Name: "rpc.json_share_pct", Unit: "%", Better: "lower"},
	{Name: "switchagent.http_us", Unit: "us", Better: "lower"},
	{Name: "hostagent.http_us", Unit: "us", Better: "lower"},
	{Name: "hostagent.http_busy_us_per_op", Unit: "us", Better: "lower"},

	// diag-heavy: the store scan and the cold tier.
	{Name: "store.records_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "store.decode_segment_us", Unit: "us", Better: "lower"},
	{Name: "statesync.read_segment_us", Unit: "us", Better: "lower"},
	{Name: "statesync.segments_decoded_per_op", Unit: "count", Better: "lower"},
	{Name: "statesync.segments_skipped_per_op", Unit: "count", Better: "lower"},
	{Name: "statesync.cold_records_per_op", Unit: "count", Better: "lower"},
	{Name: "statesync.write_segment_us", Unit: "us", Better: "lower"},
}
