package main

import "leakyway/internal/experiments"

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (the smoke test checks that they agree).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user sees. Every workload reports all of them;
// "op" is the workload's unit of work (see README.md): a warm full suite, a
// 1 Mbit transmission, or a daemon job.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the traced run's metrics: the layer probes, which every
// workload's traced run repeats, plus the workload's Go runtime deltas and
// its tracing overhead.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"experiments.parallel_gain", "ratio", "higher"},
		metricDef{"experiments.fig8_quick_batch_s", "s", "lower"},
		metricDef{"experiments.fig8_quick_daemon_s", "s", "lower"},
		metricDef{"experiments.daemon_kernel_ratio", "ratio", "lower"},
		metricDef{"sim.machine_new_ms", "ms", "lower"},
		metricDef{"sim.recycled_machine_us", "us", "lower"},
		metricDef{"sim.handoff_ns", "ns", "lower"},
		metricDef{"sim.timed_load_ns", "ns", "lower"},
		metricDef{"hier.l1_accesses_per_bit", "count", "lower"},
		metricDef{"hier.llc_misses_per_bit", "count", "lower"},
		metricDef{"hier.llc_evictions_per_bit", "count", "lower"},
		metricDef{"hier.host_ns_per_l1_access", "ns", "lower"},
		metricDef{"hier.load_l1_ns", "ns", "lower"},
		metricDef{"hier.load_dram_ns", "ns", "lower"},
		metricDef{"hier.prefetchnta_ns", "ns", "lower"},
		metricDef{"hier.flush_ns", "ns", "lower"},
		metricDef{"policy.quadage_victim_ns", "ns", "lower"},
		metricDef{"mem.translate_ns", "ns", "lower"},
		metricDef{"mem.frame_shuffle_ms", "ms", "lower"},
		metricDef{"channel.transmit_s_per_mbit", "s", "lower"},
		metricDef{"scenario.parse_us", "us", "lower"},
		metricDef{"scenario.key_us", "us", "lower"},
		metricDef{"service.submit_miss_ms", "ms", "lower"},
		metricDef{"service.submit_hit_ms", "ms", "lower"},
		metricDef{"service.queue_wait_ms", "ms", "lower"},
		metricDef{"service.runner_s", "s", "lower"},
		metricDef{"service.finish_ms", "ms", "lower"},
		metricDef{"service.fetch_ms", "ms", "lower"},
		metricDef{"service.engine_share", "ratio", "higher"},
		metricDef{"service.hit_p50_ms", "ms", "lower"},
		metricDef{"service.hit_p90_ms", "ms", "lower"},
		metricDef{"service.fsyncs_per_miss", "count", "lower"},
		metricDef{"service.fsyncs_per_hit", "count", "lower"},
		metricDef{"service.fsync_ms", "ms", "lower"},
		metricDef{"service.bytes_written_per_miss", "B", "lower"},
		metricDef{"go.gc_cycles_per_op", "count", "lower"},
		metricDef{"go.alloc_mb_per_op", "MB", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"go.peak_rss_mb", "MB", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
}()

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// perLayerMetrics combines the probes with a workload's traced run: Go
// runtime deltas per measured operation of its untraced round, and the
// traced round's slowdown.
func perLayerMetrics(rs, probes []roundResult) map[string]float64 {
	m := map[string]float64{}
	for _, p := range probes {
		for k, v := range p.Layer {
			m[k] = v
		}
	}
	for _, r := range rs {
		if r.Traced || r.MeasureOps == 0 {
			continue
		}
		n := float64(r.MeasureOps)
		m["go.gc_cycles_per_op"] = float64(r.GCCycles) / n
		m["go.alloc_mb_per_op"] = float64(r.AllocBytes) / 1e6 / n
		m["go.gc_pause_ms"] = float64(r.GCPauseNs) / 1e6 / n
		m["go.peak_rss_mb"] = r.PeakRSSMB
	}
	m["trace.overhead_ratio"] = tracedOverhead(rs)
	return m
}
