package main

import "regexp"

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; TestCatalogMatchesBenchmark
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd is what a user of the simulator sees, printed with --trace 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "socket_simsec_per_s", Unit: "socket-s/s", Better: "higher", Bound: 0.25},
	{Name: "socket_simsec_per_s_1cpu", Unit: "socket-s/s", Better: "higher", Bound: 0.25},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_expansion", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "sim_energy_per_work", Unit: "J/work-s", Better: "lower", Bound: 0.05},
}

// perLayer is what the traced run (--trace 1) prints: one figure per layer
// boundary the benchmark can observe through public calls. Metrics that do
// not apply to a workload (fleet counters on a chassis, say) read 0.
var perLayer = []metricDef{
	{Name: "sched.pick_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.pick_us_p99", Unit: "us", Better: "lower"},
	{Name: "sched.picks_per_simsec", Unit: "1/s", Better: "lower"},
	{Name: "sched.pick_share", Unit: "frac", Better: "lower"},
	{Name: "sim.step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "sim.step_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.worker_shards_per_tick", Unit: "count", Better: "lower"},
	{Name: "sim.settled_tick_frac", Unit: "frac", Better: "higher"},
	{Name: "sim.strided_tick_frac", Unit: "frac", Better: "higher"},
	{Name: "sim.event_tick_frac", Unit: "frac", Better: "higher"},
	{Name: "sim.lane_skip_frac", Unit: "frac", Better: "higher"},
	{Name: "scenario.config_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.warmup_s", Unit: "s", Better: "lower"},
	{Name: "chipmodel.throttle_down_per_simsec", Unit: "1/s", Better: "lower"},
	{Name: "chipmodel.throttle_up_per_simsec", Unit: "1/s", Better: "lower"},
	{Name: "metrics.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.new_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.alloc_mb_per_cell", Unit: "MB", Better: "lower"},
	{Name: "fleet.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "fleet.dispatched_per_cell", Unit: "count", Better: "higher"},
	{Name: "fleet.epochs_per_cell", Unit: "count", Better: "lower"},
	{Name: "fleet.observations_per_cell", Unit: "count", Better: "lower"},
	{Name: "fleet.dispatch_est_err_per_epoch", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "telemetry.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// metricName is the shape every metric and workload name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
