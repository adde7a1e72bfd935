package main

import (
	"fmt"
	"slices"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"insts_per_s", "1/s"},
	{"total_cycles", "cycles"},
	{"ok_frac", "fraction"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"capacity_rps", "1/s"},
}

// perLayer are the metrics a --trace 1 run reports on every workload.
// A layer the workload does not exercise reads 0. Times are seconds per
// replay pass over the workload's input set (medians over the run's
// passes); a ".share" is that layer's self time over the replay total.
var perLayer = []metricDef{
	{"resource.prepare_s", "s"}, {"resource.prepare.share", "fraction"}, {"resource.ids", "count"},
	{"dag.build_s", "s"}, {"dag.build.share", "fraction"},
	{"dag.freeze_s", "s"}, {"dag.freeze.share", "fraction"},
	{"dag.arcs", "count"}, {"dag.children_per_inst", "arcs/inst"},
	{"dag.n2_blocks", "count"}, {"dag.table_blocks", "count"}, {"dag.n2_fallbacks", "count"},
	{"heur.sweep_s", "s"}, {"heur.sweep.share", "fraction"}, {"heur.packed_exact_blocks", "count"},
	{"sched.pick_s", "s"}, {"sched.pick.share", "fraction"}, {"sched.heap_blocks", "count"},
	{"engine.key_s", "s"}, {"engine.key.share", "fraction"},
	{"engine.self_s", "s"}, {"engine.self.share", "fraction"},
	{"engine.run_hit_s", "s"}, {"engine.run_hit.share", "fraction"},
	{"engine.crossover", "insts"},
	{"engine.cache_hits", "count"}, {"engine.cache_misses", "count"}, {"engine.disk_hits", "count"},
	{"engine.hit_rate", "fraction"}, {"engine.degraded_blocks", "count"},
	{"engine.gate_failures", "count"}, {"engine.packed_sel_blocks", "count"},
	{"engine.pending_peak", "count"}, {"engine.big_queue_peak", "count"},
	{"engine.small_queue_peak", "count"}, {"engine.close_s", "s"},
	{"diskcache.entries", "count"}, {"diskcache.bytes", "bytes"},
	{"asm.scan_s", "s"}, {"asm.scan.share", "fraction"}, {"asm.bytes", "bytes"},
	{"server.handle_s", "s"}, {"server.self_s", "s"}, {"server.self.share", "fraction"},
	{"server.served", "count"}, {"server.shed_queue", "count"}, {"server.shed_rate", "count"},
	{"server.shed_tenant", "count"}, {"server.shed_bytes", "count"},
	{"server.deadline_hits", "count"}, {"server.engine_failures", "count"},
	{"load.lag_p99_ms", "ms"}, {"load.latency_p99_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// newLayerReport starts a --trace 1 report with every per-layer metric
// at 0, so a layer the workload never enters still reports.
func newLayerReport() *report {
	rep := &report{Correct: true}
	for _, d := range perLayer {
		rep.set(d.name, 0, d.unit)
	}
	return rep
}

// checkMetrics requires the report to carry exactly the metric set its
// mode promises, each with its declared unit.
func checkMetrics(rep *report, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		var names []string
		for n := range rep.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		return fmt.Errorf("report has %d metrics, want %d: %v", len(rep.Metrics), len(defs), names)
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	return nil
}
