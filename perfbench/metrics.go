package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. A bounded end-to-end metric has to exist, be
// non-zero and be steady on every workload, so three of the issue's
// metrics are reported another way: error_rate (failed over attempted) is
// the result line's attempted/failed counts, printed as a note;
// proved_share, which only the optimal tier produces, is the per-layer
// batch.proved_share and a note on batch-tiered; and the tail is p90,
// the highest percentile that keeps ten samples beyond it on the
// workloads with a few hundred calls per run, with p99 printed as a note
// where a run has at least 1000 calls.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_loops_per_s", "loops/s"},
	{"ii_sum", "cycles"},
	{"peak_heap_mb", "MiB"},
}

// tableIDs are the tables exp.RunAll renders, in order; each has an
// exp.<id>_ms metric.
var tableIDs = []string{
	"fig3", "copycost", "fig4", "unrollqueues", "fig6", "clusterres",
	"fig8", "fig9", "ablation-copyshape", "ablation-moves",
	"ablation-commlat", "ablation-invariants",
}

// perLayer are the traced run's metrics. A metric that does not apply to a
// workload (no stage runs on warm-gateway, no gateway on figures) reports
// 0; README.md lists which workload each one is meant for.
var perLayer = func() []metricDef {
	ms := []metricDef{
		// Compiler stages, per compile (traced replay, or the program's own
		// stage counters where noted in README.md).
		{"stage.unroll_us", "us"},
		{"stage.copies_us", "us"},
		{"stage.schedule_us", "us"},
		{"stage.alloc_us", "us"},
		{"stage.verify_us", "us"},
		{"stage.verify_share", "ratio"},
		// Request and service read path, per call of each layer.
		{"gateway.route_us", "us"},
		{"gateway.hop_us", "us"},
		{"request.normalize_us", "us"},
		{"request.canonical_us", "us"},
		{"request.structural_key_us", "us"},
		{"ir.parse_us", "us"},
		{"ir.fingerprint_us", "us"},
		{"ir.align_us", "us"},
		{"service.remap_us", "us"},
		{"service.render_us", "us"},
		{"service.decode_us", "us"},
		{"service.encode_us", "us"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.allocs_per_loop", "allocs"},
		// Caches and fleet.
		{"cache.exact_hit_ratio", "ratio"},
		{"cache.structural_hit_ratio", "ratio"},
		{"cache.reordered", "count"},
		{"cache.renumbered", "count"},
		{"cache.evictions", "count"},
		{"service.compiles", "count"},
		{"gateway.coalesced", "count"},
		{"gateway.failovers", "count"},
		// IR sizes and scheduler internals.
		{"ir.ops_in", "ops"},
		{"ir.ops_after_unroll", "ops"},
		{"ir.ops_after_copies", "ops"},
		{"sched.mii_us", "us"},
		{"sched.attempts", "count"},
		{"sched.placements", "count"},
		{"sched.evictions", "count"},
		{"sched.ii_over_mii", "ratio"},
		{"sched.at_mii_ratio", "ratio"},
		{"sched.strategies_tried", "count"},
		{"sched.portfolio_win_ratio", "ratio"},
		{"sched.pruned_nodes", "count"},
		// Experiment harness.
		{"exp.pipeline_hit_ratio", "ratio"},
		{"exp.compiles", "count"},
	}
	for _, id := range tableIDs {
		ms = append(ms, metricDef{"exp." + id + "_ms", "ms"})
	}
	return append(ms,
		// Batch fan-out.
		metricDef{"batch.parallel_efficiency", "ratio"},
		metricDef{"batch.proved_share", "ratio"},
		// The tracing itself.
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.overhead_share", "ratio"},
		metricDef{"trace.stage_crosscheck", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}()

// zeroLayers presets every per-layer metric to 0 so a workload only sets
// the ones that apply to it.
func zeroLayers(r *report) {
	for _, m := range perLayer {
		r.set(m.name, 0)
	}
}
