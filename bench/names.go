package main

import (
	"lotuseater/internal/scenario"
	"lotuseater/internal/swarm"
)

// metricDef is a metric's name and unit as the benchmark reports them.
// BENCHMARK.json declares the same lists; bench_test.go fails on any drift.
type metricDef struct{ name, unit string }

// workloads are the benchmark's inputs, in the order BENCHMARK.json lists
// them.
var workloads = []string{"paper-figures", "churn-100k", "service"}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ref_wall_s", "s"},
}

// kernelSubstrates are the substrates with a bench-owned build.
var kernelSubstrates = []string{"gossip", "swarm"}

// traceLayers are the span layers whose self time a traced run reports.
var traceLayers = []string{"bench", "scenario", "sim", "metrics", "serve", "cluster", "http"}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	for _, prefix := range []string{"scenario.wall_s.", "scenario.fold_window_s."} {
		for _, sub := range scenario.Substrates {
			add(prefix+sub, "s")
		}
	}
	for _, sub := range scenario.Substrates {
		add("scenario.replicates."+sub, "count")
	}
	add("scenario.point_spec_ms", "ms")
	add("scenario.assemble_ms", "ms")
	add("scenario.emit_gap_ms.p50", "ms")
	add("scenario.emit_gap_ms.p95", "ms")
	add("adaptive.reps", "count")
	add("adaptive.budget_used", "ratio")
	for _, sub := range kernelSubstrates {
		add("sim.build_s."+sub, "s")
		add("sim.step_ms."+sub+".p50", "ms")
		add("sim.step_ms."+sub+".max", "ms")
		add("sim.steps."+sub, "count")
		add("sim.snapshot_ms."+sub, "ms")
	}
	for _, phase := range swarm.PhaseOrder() {
		add("swarm.phase_ms."+phase, "ms")
	}
	add("metrics.encode_ms", "ms")
	for _, tier := range []string{"hit", "disk", "miss"} {
		add("serve."+tier+"_ms.p50", "ms")
		add("serve."+tier+"_ms.p95", "ms")
	}
	for _, route := range []string{"experiments", "jobs", "results"} {
		add("serve.server_ms."+route+".p50", "ms")
		add("serve.server_ms."+route+".p95", "ms")
	}
	add("serve.transport_ms", "ms")
	add("serve.queue_wait_ms", "ms")
	add("serve.compute_ms", "ms")
	add("serve.finish_ms", "ms")
	add("serve.runs", "count")
	add("serve.cache_hits", "count")
	add("serve.store_hits", "count")
	add("cluster.reps_per_s", "1/s")
	add("cluster.unit_rtt_ms", "ms")
	add("cluster.unit_exec_ms", "ms")
	add("cluster.wire_ms", "ms")
	add("cluster.units", "count")
	add("cluster.retries", "count")
	add("cluster.steals", "count")
	add("cluster.coord_overhead_s", "s")
	add("runtime.cpu_s", "s")
	add("runtime.peak_rss_mb", "MB")
	add("runtime.alloc_mb", "MB")
	add("runtime.gc_cpu_frac", "ratio")
	add("trace_overhead", "ratio")
	add("trace.coverage", "ratio")
	for _, layer := range traceLayers {
		add("trace.self_s."+layer, "s")
	}
	return d
}()
