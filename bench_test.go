// Benchmarks regenerating every table and figure of the paper (quick-mode
// trial counts; run `cmd/leakyway run all` for full-scale numbers), plus
// micro-benchmarks of the simulator substrate.
package leakyway

import (
	"io"
	"testing"

	"leakyway/internal/mem"
	"leakyway/internal/telemetry"
)

// benchExperiment runs one registered experiment per iteration and reports
// a chosen metric.
func benchExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	ctx := NewExperimentContext(io.Discard)
	ctx.Quick = true
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			last = r.Metrics[metric]
		}
	}
	if metric != "" {
		b.ReportMetric(last, metric)
	}
}

// One benchmark per paper table/figure.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", "") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1", "") }
func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", "min_prefetched_reload_cycles")
}
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3", "order_match_fraction") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4", "stock_dram_fraction") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5", "llc_mean") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6", "state_walk_correct") }
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7", "pipeline_errors") }
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8", "skylake/ntpntp_peak_kbps")
}

// BenchmarkFig8FreshSeed runs one quick fig8 per iteration with a new seed
// at Jobs=1, as a daemon job that misses the result cache does: every
// iteration shuffles fresh frame pools and repeats the channel setup of
// each sweep point instead of reusing memoized shuffles.
func BenchmarkFig8FreshSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := NewExperimentContext(io.Discard)
		ctx.Quick = true
		ctx.Jobs = 1
		ctx.Seed = 1000 + int64(i)
		if _, err := RunExperiment(ctx, "fig8"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "skylake/ntpntp_peak_kbps")
}
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9", "state_walk_correct") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", "state_walk_correct") }
func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", "skylake/prep_speedup")
}
func BenchmarkFNRate(b *testing.B) {
	benchExperiment(b, "fnrate", "skylake/prefetchscope_fn_rate")
}
func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", "skylake/reload_refresh_mean")
}
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", "variant2/flushes") }
func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", "skylake/time_speedup")
}
func BenchmarkCounter(b *testing.B) { benchExperiment(b, "counter", "intel_ratio") }
func BenchmarkClassic(b *testing.B) {
	benchExperiment(b, "classic", "flush_reload_mean")
}
func BenchmarkDefense(b *testing.B) {
	benchExperiment(b, "defense", "partition_capacity")
}
func BenchmarkNonInclusive(b *testing.B) {
	benchExperiment(b, "noninclusive", "noninclusive_capacity")
}
func BenchmarkSelfSync(b *testing.B) {
	benchExperiment(b, "selfsync", "quiet_ber")
}
func BenchmarkPollution(b *testing.B) {
	benchExperiment(b, "pollution", "countermeasure_worker_hitrate")
}
func BenchmarkNoise(b *testing.B) {
	benchExperiment(b, "noise", "noise0_raw_ber")
}
func BenchmarkResolution(b *testing.B) {
	benchExperiment(b, "resolution", "scope_median_delay")
}
func BenchmarkStealth(b *testing.B) {
	benchExperiment(b, "stealth", "flush_reload_victim_missfrac")
}
func BenchmarkEvsetAlgos(b *testing.B) {
	benchExperiment(b, "evset-algos", "hugepage_refs")
}
func BenchmarkAblateSets(b *testing.B) {
	benchExperiment(b, "ablate-sets", "two_set_peak")
}
func BenchmarkAblateLanes(b *testing.B) {
	benchExperiment(b, "ablate-lanes", "lanes4_capacity")
}
func BenchmarkAblateHWPF(b *testing.B) {
	benchExperiment(b, "ablate-hwpf", "hwpf_on_ber")
}
func BenchmarkAblatePolicy(b *testing.B) {
	benchExperiment(b, "ablate-policy", "countermeasure_capacity")
}

// Engine scaling: the quick-mode full suite at several worker counts.
// The jobs=N curves only separate on a multi-core host; on a single-CPU
// runner all four collapse to the serial time (see BENCH.json).

func benchRunAllJobs(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := NewExperimentContext(io.Discard)
		ctx.Quick = true
		ctx.Jobs = jobs
		if _, err := RunAllExperiments(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllJobs1(b *testing.B) { benchRunAllJobs(b, 1) }
func BenchmarkRunAllJobs2(b *testing.B) { benchRunAllJobs(b, 2) }
func BenchmarkRunAllJobs4(b *testing.B) { benchRunAllJobs(b, 4) }
func BenchmarkRunAllJobs8(b *testing.B) { benchRunAllJobs(b, 8) }

// Substrate micro-benchmarks: simulated memory operations per wall-clock
// second.

func benchOps(b *testing.B, f func(c *Core, buf VAddr, i int)) {
	b.Helper()
	m := MustNewMachine(Skylake(), 1<<26, 1)
	b.ResetTimer()
	m.Spawn("bench", 0, nil, func(c *Core) {
		buf := c.Alloc(64 * PageSize)
		for i := 0; i < b.N; i++ {
			f(c, buf, i)
		}
	})
	m.Run()
}

func BenchmarkSimL1Hit(b *testing.B) {
	benchOps(b, func(c *Core, buf VAddr, i int) {
		c.Load(buf)
	})
}

func BenchmarkSimLoadSpread(b *testing.B) {
	benchOps(b, func(c *Core, buf VAddr, i int) {
		c.Load(buf + VAddr((i%4096)*LineSize))
	})
}

func BenchmarkSimPrefetchNTA(b *testing.B) {
	benchOps(b, func(c *Core, buf VAddr, i int) {
		c.PrefetchNTA(buf + VAddr((i%4096)*LineSize))
	})
}

func BenchmarkSimFlushReload(b *testing.B) {
	benchOps(b, func(c *Core, buf VAddr, i int) {
		c.Flush(buf)
		c.Load(buf)
	})
}

func BenchmarkSimTimedLoad(b *testing.B) {
	benchOps(b, func(c *Core, buf VAddr, i int) {
		c.TimedLoad(buf)
	})
}

// BenchmarkChannelBit measures end-to-end simulated covert-channel
// throughput (simulated bits per wall-clock second).
func BenchmarkChannelBit(b *testing.B) {
	plat := Skylake()
	cfg := DefaultChannelConfig(plat)
	cfg.Interval = 1500
	cfg.NoisePeriod = 0
	bits := b.N
	if bits < 8 {
		bits = 8
	}
	msg := RandomMessage(bits, 1)
	m := MustNewMachine(plat, 1<<30, 1)
	b.ResetTimer()
	rep, _ := RunNTPNTP(m, cfg, msg)
	b.StopTimer()
	b.ReportMetric(rep.CapacityKBps, "sim_KB/s")
	b.ReportMetric(100*rep.BER, "BER_%")
	_ = mem.LineSize
}

// benchTraceOverhead runs a fixed NTP+NTP transmission per iteration,
// with the trace bus either disabled (nil sink — must cost nothing) or
// recording every subsystem.
func benchTraceOverhead(b *testing.B, traced bool) {
	plat := Skylake()
	cfg := DefaultChannelConfig(plat)
	cfg.Interval = 1500
	cfg.NoisePeriod = 0
	msg := RandomMessage(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MustNewMachine(plat, 1<<30, 1)
		if traced {
			col := NewTraceCollector()
			m.SetTracer(col.Tracer("bench", TraceAllPkgs))
		}
		RunNTPNTP(m, cfg, msg)
	}
}

// BenchmarkTraceOverheadOff is the acceptance baseline: tracing disabled
// must not measurably slow the simulator (compare against ...On).
func BenchmarkTraceOverheadOff(b *testing.B) { benchTraceOverhead(b, false) }

// BenchmarkTraceOverheadOn records hier+sim+channel events for the same
// workload, measuring the full cost of the event bus when enabled.
func BenchmarkTraceOverheadOn(b *testing.B) { benchTraceOverhead(b, true) }

// benchTelemetryOverhead runs one quick fig8 regeneration per iteration
// with the live-telemetry path either fully off (nil Progress — every
// checkpoint must be a nil-check and nothing else) or on as the daemon
// wires an untraced job: a Progress tracker receiving phase and shard
// ticks, and no tracer.
func benchTelemetryOverhead(b *testing.B, on bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := NewExperimentContext(io.Discard)
		ctx.Quick = true
		if on {
			ctx.Progress = telemetry.NewProgress()
		}
		if _, err := RunExperiment(ctx, "fig8"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverheadOff is the acceptance baseline pinned in
// BENCH.json: with no Progress attached the checkpoint calls must not
// measurably slow a run (compare against ...On).
func BenchmarkTelemetryOverheadOff(b *testing.B) { benchTelemetryOverhead(b, false) }

// BenchmarkTelemetryOverheadOn measures the daemon's untraced-job
// telemetry wiring — progress checkpoints only — for the same workload.
// It is gated in BENCH.json, so per-event work on untraced runs fails
// the bench check.
func BenchmarkTelemetryOverheadOn(b *testing.B) { benchTelemetryOverhead(b, true) }
