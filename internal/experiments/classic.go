package experiments

import (
	"fmt"

	"leakyway/internal/attack"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "classic",
		Title: "Extension — the classic shared-memory attacks as baselines",
		Paper: "Section II-C background: Flush+Reload, Flush+Flush (stealthy), Evict+Reload (no CLFLUSH, much slower reset)",
		Run:   runClassic,
	})
}

func runClassic(ctx *Context) (*Result, error) {
	res := &Result{}
	iters := ctx.Trials(1000)
	cfg := ctx.Platforms[0]
	// The three classic attacks and the coherence channel each run on
	// their own machine, so the four runs shard across free workers.
	variants := []attack.ClassicVariant{attack.FlushReload, attack.FlushFlush, attack.EvictReload}
	rs := make([]attack.ClassicResult, len(variants))
	var coh attack.CoherenceResult
	ctx.Parallel(len(variants)+1, func(i int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		if i < len(variants) {
			rs[i] = attack.RunClassic(m, variants[i], attack.ClassicConfig{Iterations: iters}, ctx.Seed)
			return
		}
		// The coherence-state channel (reference [67]) detects *writes*
		// from pure load timing: no flushes, no evictions.
		coh = attack.RunCoherence(m, attack.ClassicConfig{Iterations: iters}, ctx.Seed)
	})
	rows := [][]string{}
	for i, v := range variants {
		r := rs[i]
		mean := stats.Mean(r.IterLatencies)
		rows = append(rows, []string{
			v.String(),
			fmt.Sprintf("%.0f", mean),
			fmt.Sprintf("%.1f%%", 100*r.Accuracy),
			fmt.Sprintf("%d", r.TargetAccesses),
		})
		key := map[attack.ClassicVariant]string{
			attack.FlushReload: "flush_reload", attack.FlushFlush: "flush_flush", attack.EvictReload: "evict_reload",
		}[v]
		res.Metric(key+"_mean", mean)
		res.Metric(key+"_accuracy", r.Accuracy)
		res.Metric(key+"_target_accesses", float64(r.TargetAccesses))
	}
	rows = append(rows, []string{
		"Coherence (write detect)",
		fmt.Sprintf("%.0f", stats.Mean(coh.IterLatencies)),
		fmt.Sprintf("%.1f%%", 100*coh.Accuracy),
		fmt.Sprintf("%d", iters),
	})
	res.Metric("coherence_mean", stats.Mean(coh.IterLatencies))
	res.Metric("coherence_accuracy", coh.Accuracy)
	renderTable(ctx, []string{"attack", "iteration mean (cyc)", "accuracy", "demand accesses to shared line"}, rows)
	ctx.Printf("Flush+Flush never touches the shared line (stealth); Evict+Reload pays the conflict-based\n")
	ctx.Printf("reset the paper's prefetch tricks avoid; the coherence channel sees writes without a single flush\n")
	return res, nil
}
