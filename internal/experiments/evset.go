package experiments

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/evset"
	"leakyway/internal/evset/model"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13 — eviction-set construction time: access-based baseline vs Algorithm 2",
		Paper: "the prefetch-based algorithm is several times faster on both platforms (≈0.5 ms vs ≈0.15 ms)",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "counter",
		Title: "Section VI-D — countermeasure: modified insertion ages kill the construction advantage",
		Paper: "7.25x fewer memory references under the Intel policy, only 1.26x under the countermeasure (load age 1, NTA age 2)",
		Run:   runCounter,
	})
}

func runFig13(ctx *Context) (*Result, error) {
	res := &Result{}
	desired := 16
	trials := 3
	if ctx.Quick {
		desired = 8
		trials = 1
	}
	err := ctx.EachPlatform(func(sub *Context, cfg hier.Config) error {
		// Every trial builds both sets on its own machine with a
		// trial-derived seed, so the trials shard across free workers.
		type trialOut struct {
			pr, br evset.Result
			err    error
		}
		outs := make([]trialOut, trials)
		sub.Parallel(trials, func(trial int, src sim.MachineSource) {
			m := src.NewMachine(cfg, 1<<31, sub.ShardSeed(trial))
			as := m.NewSpace()
			o := &outs[trial]
			m.Spawn("attacker", 0, as, func(c *sim.Core) {
				th := core.Calibrate(c, 48)
				t1 := c.Alloc(mem.PageSize)
				var perr, berr error
				// The pool scales with LLCWays, not desired: the cold LLC's
				// first ~LLCWays congruent candidates fill invalid ways.
				o.pr, perr = evset.BuildPrefetch(c, t1, evset.Options{
					Desired: desired, Pool: evset.NewPool(c, t1, 512*cfg.LLCWays), Thresholds: th,
				})
				t2 := c.Alloc(mem.PageSize)
				o.br, berr = evset.BuildBaseline(c, t2, evset.Options{
					Desired: desired, Pool: evset.NewPool(c, t2, 4000*desired), Thresholds: th,
				})
				if perr != nil {
					o.err = fmt.Errorf("prefetch build: %w", perr)
				} else if berr != nil {
					o.err = fmt.Errorf("baseline build: %w", berr)
				}
			})
			m.Run()
		})
		var prefMs, baseMs float64
		var prefRefs, baseRefs float64
		freqHz := cfg.FreqGHz * 1e9
		for _, o := range outs {
			if o.err != nil {
				return o.err
			}
			prefMs += float64(o.pr.Cycles) / freqHz * 1e3
			baseMs += float64(o.br.Cycles) / freqHz * 1e3
			prefRefs += float64(o.pr.MemRefs)
			baseRefs += float64(o.br.MemRefs)
		}
		n := float64(trials)
		prefMs, baseMs, prefRefs, baseRefs = prefMs/n, baseMs/n, prefRefs/n, baseRefs/n
		rows := [][]string{
			{"baseline (access-based)", fmt.Sprintf("%.3f ms", baseMs), fmt.Sprintf("%.0f", baseRefs)},
			{"ours (Algorithm 2)", fmt.Sprintf("%.3f ms", prefMs), fmt.Sprintf("%.0f", prefRefs)},
		}
		sub.Printf("\n%s (eviction set of %d lines)\n", cfg.Name, desired)
		renderTable(sub, []string{"algorithm", "execution time", "memory references"}, rows)
		sub.Printf("speedup: %.1fx in time, %.1fx in references\n", baseMs/prefMs, baseRefs/prefRefs)
		res.Metric(shortName(cfg)+"/baseline_ms", baseMs)
		res.Metric(shortName(cfg)+"/prefetch_ms", prefMs)
		res.Metric(shortName(cfg)+"/time_speedup", baseMs/prefMs)
		return nil
	})
	return res, err
}

func runCounter(ctx *Context) (*Result, error) {
	res := &Result{}
	comparisons := model.PaperComparison(16, 16)
	rows := [][]string{}
	paper := []float64{7.25, 1.26}
	for i, c := range comparisons {
		rows = append(rows, []string{
			c.Policy,
			fmt.Sprintf("%d", c.BaselineRefs),
			fmt.Sprintf("%d", c.PrefetchRefs),
			fmt.Sprintf("%.2fx", c.ImprovementRatio),
			fmt.Sprintf("%.2fx", paper[i]),
		})
	}
	renderTable(ctx, []string{"LLC insertion policy", "baseline refs", "Algorithm 2 refs", "improvement", "paper"}, rows)
	ctx.Printf("the countermeasure (load age 1, NTA age 2) collapses the advantage, as Section VI-D reports\n")
	res.Metric("intel_ratio", comparisons[0].ImprovementRatio)
	res.Metric("countermeasure_ratio", comparisons[1].ImprovementRatio)
	return res, nil
}
