package main

import "slices"

// This file is the benchmark's vocabulary: the workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root declares the same names;
// TestBenchQuick keeps the two from drifting.

// Workload names are permanent: results are compared across commits by them.
const (
	wStep  = "step-saturated"
	wFault = "fault-storm"
	wGrid  = "router-grid"
	wMiss  = "meshd-miss"
	wHit   = "meshd-hit"
)

// The direction in which a metric improves.
const (
	higher = "higher"
	lower  = "lower"
)

// metricDef declares one metric. on lists the workloads whose traced or
// untraced pass measures it; empty means every workload. A per-layer
// metric printed for a workload outside its list reads 0: that layer did
// no such work there.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	on                 []string
}

func (d metricDef) appliesTo(workload string) bool {
	return len(d.on) == 0 || slices.Contains(d.on, workload)
}

// endToEnd is what a user of the system sees. Every metric is defined for
// every workload (README.md gives the per-workload reading of "request" and
// "op"); the bounds are max(initial, 1.5 x the largest A/A gap measured on
// the reference host), capped by the contract at 0.25.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "sim_steps_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "req_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: lower, bound: 0.10},
	{name: "live_heap_mb", unit: "MiB", better: lower, bound: 0.10},
}

var (
	engineWork = []string{wStep, wFault, wGrid, wMiss}
	sweepWork  = []string{wFault, wGrid, wMiss}
	meshdWork  = []string{wMiss, wHit}
)

// perLayer is one entry per module-level measurement; layer = the name's
// first dotted component.
var perLayer = []metricDef{
	{name: "host.alu_ns_per_iter", unit: "ns", better: lower},
	{name: "host.chase_ns_per_load", unit: "ns", better: lower},
	{name: "host.par2_speedup", unit: "ratio", better: higher},
	{name: "host.gomaxprocs", unit: "count", better: higher},
	{name: "host.norm_rep_time", unit: "ratio", better: lower},
	{name: "host.discount", unit: "ratio", better: higher},

	{name: "core.step_us", unit: "us", better: lower, on: engineWork},
	{name: "core.step_share", unit: "share", better: lower, on: engineWork},
	{name: "core.round_us", unit: "us", better: lower, on: []string{wFault}},
	{name: "core.busy_round_share", unit: "share", better: lower, on: engineWork},
	{name: "core.reset_us", unit: "us", better: lower, on: engineWork},
	{name: "core.info_records_peak", unit: "count", better: lower, on: engineWork},

	{name: "fault.generate_process_us", unit: "us", better: lower, on: []string{wFault}},
	{name: "fault.events_per_trial", unit: "count", better: lower, on: []string{wFault}},

	{name: "route.decide_ns.limited", unit: "ns", better: lower, on: engineWork},
	{name: "route.decide_ns.congested", unit: "ns", better: lower, on: engineWork},
	{name: "route.decide_ns.dor", unit: "ns", better: lower, on: engineWork},
	{name: "route.decide_ns.blind", unit: "ns", better: lower, on: engineWork},
	{name: "route.decide_ns.oracle", unit: "ns", better: lower, on: engineWork},
	{name: "route.backtrack_share", unit: "share", better: lower, on: engineWork},
	{name: "route.detour_ratio", unit: "ratio", better: lower, on: engineWork},

	{name: "engine.step_us", unit: "us", better: lower, on: engineWork},
	{name: "engine.step_ns_per_flight", unit: "ns", better: lower, on: engineWork},
	{name: "engine.route_commit_us", unit: "us", better: lower, on: engineWork},
	{name: "engine.inject_ns", unit: "ns", better: lower, on: engineWork},
	{name: "engine.harvest_us", unit: "us", better: lower, on: engineWork},
	{name: "engine.reset_us", unit: "us", better: lower, on: engineWork},
	{name: "engine.moves", unit: "count", better: higher, on: engineWork},
	{name: "engine.stalls", unit: "count", better: lower, on: engineWork},
	{name: "engine.move_share", unit: "share", better: higher, on: engineWork},
	{name: "engine.timeouts", unit: "count", better: lower, on: engineWork},
	{name: "engine.in_flight_mean", unit: "count", better: lower, on: engineWork},
	{name: "engine.shard2_speedup", unit: "ratio", better: higher, on: []string{wStep}},

	{name: "traffic.source_step_us", unit: "us", better: lower, on: engineWork},
	{name: "traffic.offers", unit: "count", better: higher, on: engineWork},
	{name: "traffic.admit_share", unit: "share", better: higher, on: engineWork},
	{name: "traffic.collector_result_us", unit: "us", better: lower, on: engineWork},
	{name: "traffic.trace_unmarshal_us", unit: "us", better: lower, on: engineWork},

	{name: "probe.overhead_share", unit: "share", better: lower, on: []string{wStep}},

	{name: "par.speedup_w2", unit: "ratio", better: higher, on: []string{wGrid}},
	{name: "par.efficiency", unit: "share", better: higher, on: []string{wGrid}},

	{name: "ndmesh.sim_build_us.8x8", unit: "us", better: lower, on: engineWork},
	{name: "ndmesh.sim_build_us.32x32", unit: "us", better: lower, on: engineWork},
	{name: "ndmesh.sim_reset_us", unit: "us", better: lower, on: engineWork},
	{name: "ndmesh.cell_us_p50", unit: "us", better: lower, on: engineWork},
	{name: "ndmesh.cell_overhead_us", unit: "us", better: lower, on: sweepWork},
	{name: "ndmesh.pool_hit_share", unit: "share", better: higher, on: meshdWork},
	{name: "ndmesh.pool_built", unit: "count", better: lower, on: meshdWork},

	{name: "server.parse_key_us", unit: "us", better: lower, on: meshdWork},
	{name: "server.handler_hit_us_p50", unit: "us", better: lower, on: []string{wHit}},
	{name: "server.handler_hit_us_p99", unit: "us", better: lower, on: []string{wHit}},
	{name: "server.handler_hit_us_p999", unit: "us", better: lower, on: []string{wHit}},
	{name: "server.net_overhead_us", unit: "us", better: lower, on: []string{wHit}},
	{name: "server.ttfr_p50_ms", unit: "ms", better: lower, on: meshdWork},
	{name: "server.miss_overhead_share", unit: "share", better: lower, on: []string{wMiss}},
	{name: "server.req_p95_ms", unit: "ms", better: lower, on: []string{wMiss}},
	{name: "server.stream_gap_max_ms", unit: "ms", better: lower, on: []string{wMiss}},
	{name: "server.cache_hit_share", unit: "share", better: higher, on: meshdWork},
	{name: "server.cache_entries", unit: "count", better: lower, on: meshdWork},
	{name: "server.cache_evictions", unit: "count", better: lower, on: meshdWork},
	{name: "server.registry_jobs", unit: "count", better: lower, on: meshdWork},
	{name: "server.refused", unit: "count", better: lower, on: meshdWork},

	{name: "cmd.loadgen_cell_s", unit: "s", better: lower, on: []string{wStep}},
	{name: "cmd.parity_ok", unit: "bool", better: higher, on: []string{wStep}},

	{name: "trace.overhead_share", unit: "share", better: lower},
	{name: "trace.replica_match", unit: "bool", better: higher},
	{name: "trace.attributed_share", unit: "share", better: higher, on: engineWork},
}

// sample is one reported number. Q1/Q3/N are set where the value is the
// median of a sample (N = 0 means a single measurement or a count). Raw is
// set on end-to-end timings: the value as the clock read it, before the
// host discount.
type sample struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
	Raw    float64 `json:"raw,omitempty"`
}

// fromSummary builds the sample of a median-reported metric.
func fromSummary(metric string, s summary) sample {
	return sample{Metric: metric, Value: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// defOf finds a metric's declaration; a name outside the table is a bug.
func defOf(defs []metricDef, metric string) metricDef {
	for _, d := range defs {
		if d.name == metric {
			return d
		}
	}
	panic("bench: undeclared metric " + metric)
}
