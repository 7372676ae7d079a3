package main

// metricDef names one reported metric. moves, for a per-layer metric, is
// the end-to-end metric (and workload) it is predicted to move; the traced
// run prints it next to the value. BENCHMARK.json lists the same names.
type metricDef struct {
	name  string
	unit  string
	moves string
}

// endToEnd is what a user of the system sees. Every metric is defined, and
// nonzero, on every workload; on the DES workloads latencies are virtual
// time (the paper's ATT for des-paper, submit-to-stable for
// des-optimistic) and commits_per_s is the simulator's speed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "commits_per_s", unit: "1/s"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "write_p90_ms", unit: "ms"},
	{name: "done_frac", unit: "ratio"},
	{name: "heap_peak_mb", unit: "MB"},
	{name: "msgs_per_commit", unit: "count"},
}

// perLayer is the traced run's table. A layer the workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"live.actor_wait_p50_us", "us", "write_p90_ms on live-hotkey; write_p50_ms on live-spread"},
	{"live.actor_wait_p99_us", "us", "write_p90_ms and client.read_p99_ms on live-hotkey"},
	{"live.submit_call_p50_us", "us", "commits_per_s and write_p50_ms on live-spread"},
	{"live.inflight_p50_ms", "ms", "write_p50_ms on live-spread and live-hotkey"},
	{"fabric.msgs_per_commit", "count", "commits_per_s on live-spread"},
	{"fabric.bytes_per_commit", "B", "commits_per_s on live-spread"},
	{"fabric.drops", "count", "done_frac on live-*"},
	{"agent.migrations_per_commit", "count", "write_p50_ms on live-hotkey and des-paper"},
	{"agent.migrations_failed", "count", "write_p90_ms on live-hotkey; done_frac"},
	{"core.visits_per_commit", "count", "write_p50_ms on des-paper and live-hotkey"},
	{"core.retries_per_commit", "count", "write_p90_ms and client.write_p99_ms on live-hotkey"},
	{"core.tie_pct", "%", "write_p90_ms and client.write_p99_ms on live-hotkey"},
	{"core.ll_depth_max", "count", "write_p90_ms and client.write_p99_ms on live-hotkey"},
	{"core.gone_len", "count", "commits_per_s on live-spread and des-paper"},
	{"core.cps_decay", "ratio", "commits_per_s on live-spread and des-paper"},
	{"wal.appends_per_commit", "count", "commits_per_s and write_p50_ms on live-spread; none on des-*"},
	{"wal.fsyncs_per_commit", "count", "commits_per_s and write_p50_ms on live-spread; none on des-*"},
	{"wal.group_batches", "count", "write_p50_ms on live-spread; none on des-*"},
	{"disk.sync_busy_pct", "%", "commits_per_s on live-spread; none on des-*"},
	{"des.events_per_commit", "count", "commits_per_s on des-paper and des-optimistic; none on live-*"},
	{"des.ns_per_event", "ns", "commits_per_s on des-paper and des-optimistic; none on live-*"},
	{"des.submit_call_p50_us", "us", "commits_per_s on des-paper and des-optimistic; none on live-*"},
	{"simnet.bytes_per_commit", "B", "commits_per_s on des-paper and des-optimistic; none on live-*"},
	{"opt.rollbacks_per_commit", "count", "write_p50_ms and commits_per_s on des-optimistic"},
	{"opt.gossip_hops_per_commit", "count", "write_p50_ms and commits_per_s on des-optimistic"},
	{"go.alloc_kb_per_op", "KB", "heap_peak_mb; write_p90_ms and commits_per_s"},
	{"go.gc_cpu_pct", "%", "heap_peak_mb; write_p90_ms and commits_per_s"},
	{"gen.late_p99_ms", "ms", "validity of live-hotkey latencies (should stay near 0)"},
	{"bench.observe_lag_p50_us", "us", "validity of live latencies (resolution of the commit poll)"},
	{"bench.trace_overhead_pct", "%", "validity of the traced figures (should stay small)"},
	{"client.write_p99_ms", "ms", "write tail, pooled over the untraced trials; too unsteady across seeds to gate"},
	{"client.read_p50_ms", "ms", "live-hotkey quorum reads (untraced trials of this run)"},
	{"client.read_p99_ms", "ms", "live-hotkey quorum reads: rises when writes hold the actor loops longer"},
	{"client.lock_p50_ms", "ms", "des-paper virtual ALT, the Fig. 2 quantity (untraced trials)"},
}
