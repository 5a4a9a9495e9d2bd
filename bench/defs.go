package main

// This file is the single source of truth for the benchmark's names:
// workloads, end-to-end metrics (with the regression bound each carries)
// and per-layer metrics. BENCHMARK.json at the repository root is this
// table rendered by `go run ./bench -manifest`; bench_test.go fails when
// the two drift.

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse; per-layer metrics carry
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// runSeconds is the measured span of one run: 150 windows of 100 ms.
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"echo_unloaded", "1 thread, window 1, 64 B inline echo: the latency floor, every hop once and no contention, so the layer ladder sums to lat_p50_us"},
	{"echo_contended", "nproc threads x window 8 on one shared QP: TCQ combining, credits, response coalescing and selective signalling carry the throughput"},
	{"echo_large", "nproc threads x window 2, 4 KiB echo: per-byte cost (mem size classes, ring copies, segmentation); combining should not matter"},
	{"onesided_mix", "1 thread, synchronous 50% Read / 25% Write / 25% FetchAdd, no server CPU and no handler: every RPC-only or server-side optimisation predicts no change here"},
	{"kv_r0", "4 members, 4 shards, 16 parked callers, 75% put / 25% get, R=0: router, worker pool, service and kvstore with replication idle"},
	{"kv_r2", "kv_r0 with two backups per shard: group commit, backup apply, batch ack and the read gate; the R=2/R=0 ratio is the replication tax"},
}

// endToEndDefs are what a caller of the system sees. A run with -trace 0
// prints exactly these.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"lat_p50_us", "us", lower, 0.25},
	{"put_p50_us", "us", lower, 0.25},
	{"get_p50_us", "us", lower, 0.25},
	{"ok_share", "share", higher, 0.001},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.05},
	{"alloc_bytes_per_op", "B", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// Ladder rungs, in climbing order: each is one more layer than the one
// before it. The prober times them under the workload's load.
const (
	rungMemGetRelease = "mem.get_release_ns"
	rungKVUpdate      = "kvstore.update_ns"
	rungKVGet         = "kvstore.get_ns"
	rungRnicSelf      = "rnic.self_us"
	rungReadRTT       = "core.read_rtt_us"
	rungEchoInline    = "core.echo_inline_us"
	rungEchoWorker    = "core.echo_worker_us"
	rungDirectGet     = "cluster.direct_get_us"
	rungDirectPut     = "cluster.direct_put_us"
	rungRouterGet     = "cluster.router_get_us"
	rungRouterPut     = "cluster.router_put_us"
)

// perLayerDefs are printed by a run with -trace 1. A metric that does not
// apply to a workload (a cluster counter on an echo workload) reads 0.
var perLayerDefs = []metricDef{
	// bench: the harness's own cost and the untraced reference the traced
	// numbers are compared against.
	{Name: "bench.clock_ns", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: lower},
	{Name: "bench.window_spread", Unit: "share", Better: lower},
	{Name: "bench.ref_ops_per_s", Unit: "1/s", Better: higher},
	{Name: "bench.ref_lat_p50_us", Unit: "us", Better: lower},
	{Name: "bench.lat_p99_us", Unit: "us", Better: lower},
	{Name: "bench.put_p99_us", Unit: "us", Better: lower},
	{Name: "bench.get_p99_us", Unit: "us", Better: lower},
	{Name: "bench.lat_p999_us", Unit: "us", Better: lower},
	{Name: "bench.samples", Unit: "count", Better: higher},
	{Name: "bench.fail_share", Unit: "share", Better: lower},
	{Name: "bench.gc_pause_share", Unit: "share", Better: lower},
	{Name: "bench.gc_cycles", Unit: "count", Better: lower},

	// Layer ladder: p50 of each rung, then self times by subtraction.
	{Name: rungMemGetRelease, Unit: "ns", Better: lower},
	{Name: rungKVUpdate, Unit: "ns", Better: lower},
	{Name: rungKVGet, Unit: "ns", Better: lower},
	{Name: rungRnicSelf, Unit: "us", Better: lower},
	{Name: rungReadRTT, Unit: "us", Better: lower},
	{Name: rungEchoInline, Unit: "us", Better: lower},
	{Name: rungEchoWorker, Unit: "us", Better: lower},
	{Name: rungDirectGet, Unit: "us", Better: lower},
	{Name: rungDirectPut, Unit: "us", Better: lower},
	{Name: rungRouterGet, Unit: "us", Better: lower},
	{Name: rungRouterPut, Unit: "us", Better: lower},
	{Name: "core.memop_self_us", Unit: "us", Better: lower},
	{Name: "core.rpc_self_us", Unit: "us", Better: lower},
	{Name: "core.worker_self_us", Unit: "us", Better: lower},
	{Name: "cluster.service_get_self_us", Unit: "us", Better: lower},
	{Name: "cluster.service_put_self_us", Unit: "us", Better: lower},
	{Name: "cluster.router_self_us", Unit: "us", Better: lower},

	// core: registry deltas and the client node's TraceRing.
	{Name: "core.coalesce_degree_out", Unit: "count", Better: higher},
	{Name: "core.coalesce_degree_in", Unit: "count", Better: higher},
	{Name: "core.msgs_per_op", Unit: "count", Better: lower},
	{Name: "core.leader_tenure_us_p50", Unit: "us", Better: lower},
	{Name: "core.enqueue_to_dispatch_us_p50", Unit: "us", Better: lower},
	{Name: "core.combine_to_post_us_p50", Unit: "us", Better: lower},
	{Name: "core.post_to_complete_us_p50", Unit: "us", Better: lower},
	{Name: "core.dispatch_to_release_us_p50", Unit: "us", Better: lower},
	{Name: "core.credit_renewals_per_kop", Unit: "count", Better: lower},
	{Name: "core.credit_withheld_per_kop", Unit: "count", Better: lower},
	{Name: "core.active_qps", Unit: "count", Better: higher},
	{Name: "core.thread_migrations", Unit: "count", Better: lower},
	{Name: "core.qp_redistributions", Unit: "count", Better: lower},
	{Name: "core.leader_stalls", Unit: "count", Better: lower},
	{Name: "core.rpc_rejected", Unit: "count", Better: lower},
	{Name: "core.rpc_timeouts", Unit: "count", Better: lower},
	{Name: "core.retries", Unit: "count", Better: lower},
	{Name: "core.stale_drops", Unit: "count", Better: lower},

	{Name: "rnic.doorbells_per_op", Unit: "count", Better: lower},
	{Name: "rnic.work_requests_per_op", Unit: "count", Better: lower},
	{Name: "rnic.packets_tx_per_op", Unit: "count", Better: lower},
	{Name: "rnic.bytes_tx_per_op", Unit: "B", Better: lower},
	{Name: "rnic.signaled_share", Unit: "share", Better: lower},
	{Name: "rnic.cache_hit_rate", Unit: "share", Better: higher},
	{Name: "rnic.mr_lookups_per_op", Unit: "count", Better: lower},
	{Name: "rnic.rc_retransmits", Unit: "count", Better: lower},
	{Name: "rnic.rnr_waits", Unit: "count", Better: lower},

	{Name: "fabric.packets_per_op", Unit: "count", Better: lower},
	{Name: "fabric.wire_bytes_per_payload_byte", Unit: "B/B", Better: lower},
	{Name: "fabric.dropped", Unit: "count", Better: lower},

	{Name: "mem.pool_gets_per_op", Unit: "count", Better: lower},
	{Name: "mem.pool_hit_rate", Unit: "share", Better: higher},
	{Name: "mem.outstanding_end", Unit: "count", Better: lower},

	{Name: "cluster.redirects_per_kop", Unit: "count", Better: lower},
	{Name: "cluster.repl_forwards_per_put", Unit: "count", Better: lower},
	{Name: "cluster.repl_batch_entries_mean", Unit: "count", Better: higher},
	{Name: "cluster.repl_flush_us_p50", Unit: "us", Better: lower},
	{Name: "cluster.repl_flush_us_p99", Unit: "us", Better: lower},
	{Name: "cluster.read_gate_waits_per_get", Unit: "count", Better: lower},
	{Name: "cluster.repl_log_pending_max", Unit: "count", Better: lower},
}

// manifest is BENCHMARK.json. Per-layer metrics carry no bound, so the
// key is left out of theirs.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}
