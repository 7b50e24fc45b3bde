package main

// endToEndNames are the metrics an untraced run reports, on every
// workload; perLayerNames those a traced run reports. BENCHMARK.json at
// the repository root lists the same names (a self-test keeps them in
// step).
var endToEndNames = []string{
	"setup_s", "cells_per_min", "cell_s_p50", "sim_ticks_per_s", "peak_rss_mib",
	"runs_per_s", "run_latency_s_p50", "run_latency_s_p95",
}

var perLayerNames = []string{
	"sim.cells", "sim.cell_s", "sim.spec_s", "sim.train_s", "core.train_decide_s",
	"rl.sac_updates", "rl.decide_ns_per_update", "sim.train_tick_other_s",
	"sim.new_runner_s", "policy.init_s", "sim.run_s", "sim.ticks",
	"policy.tick_s", "policy.tick_share", "policy.tick_share.scale1", "policy.tick_share.scale16",
	"core.ppm_decide_s", "core.ppm_decisions", "core.ppe_tick_s",
	"sim.tick_other_s", "sim.ns_per_tick", "pebs.samples", "pebs.ns_per_sample",
	"queue.ticks", "queue.draws",
	"mem.pages_promoted", "mem.pages_demoted", "mem.hotness_agings",
	"go.mallocs", "go.alloc_bytes", "go.gc_pause_s", "go.gc_cycles",
	"sim.cell_other_s", "sim.cell_other_frac",
	"server.runs", "server.submit_s_p50", "server.submit_s_p95",
	"server.queue_wait_s_p50", "server.queue_wait_s_p95", "server.exec_overhead_s_p50",
	"server.observe_lag_s_p50", "server.gap_s_p50", "server.attributed_frac",
	"server.rejected", "journal.bytes_per_run",
	"trace.untraced.cells_per_min", "trace.traced.cells_per_min",
	"trace.untraced.sim_ticks_per_s", "trace.traced.sim_ticks_per_s", "trace.overhead_frac",
	"fail_frac",
}
