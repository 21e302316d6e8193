package experiments

import (
	"fmt"

	"leakyway/internal/attack"
	"leakyway/internal/core"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9 — Reload+Refresh LLC set state walk",
		Paper: "the set is filled at age 2 with dt first; the conflict load evicts l0 if the victim accessed dt, else dt itself",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10 — Prefetch+Refresh LLC set state walk",
		Paper: "the set is prefetched at age 3; the victim's access drops dt to 2, protecting it from the conflict prefetch",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12 — attacker latency per iteration: Reload+Refresh vs Prefetch+Refresh v1/v2",
		Paper: "1601/1767 cycles (SKL/KBL) for Reload+Refresh, 1165/1369 for v1, 873/1054 for v2",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table III — operations for reverting the cache state (16-way LLC)",
		Paper: "R+R: 2 flushes, 2 DRAM, 14 LLC accesses; v1: 2/2/0; v2: 1/1/0",
		Run:   runTable3,
	})
}

// stateWalk drives one accessed and one idle iteration of a refresh attack
// with set-state snapshots, for the Figure 9/10 traces; id names the
// experiment in setup failures. It keeps its own loop rather than
// RefreshVariant.Monitor's, because a snapshot follows every step.
func stateWalk(ctx *Context, id string, nta bool) (*Result, error) {
	res := &Result{}
	cfg := quietPlatform(ctx.Platforms[0])
	tr := core.NewTrace()
	verdicts := make([]bool, 2)
	ctx.Parallel(1, func(_ int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		sh, err := attack.StageShared(m, cfg.LLCWays)
		if err != nil {
			failf(id, "stage shared line", err)
		}
		dt, ls, w := sh.DT, sh.Lines, len(sh.Lines)

		const window = int64(40_000)
		m.SpawnDaemon("victim", 1, sh.Victim, func(c *sim.Core) {
			// Window 0: access dt (case a). Window 1: stay idle (case b).
			c.WaitUntil(window + window/2)
			c.Load(dt)
		})
		m.Spawn("attacker", 0, sh.Attacker, func(c *sim.Core) {
			th := core.Calibrate(c, 48)
			tr.Label(c, dt, "dt")
			tr.Label(c, ls[0], "l0")
			tr.Label(c, ls[w-1], "lw-1")

			attack.PrepareCleanSet(c, dt, ls, nta)
			tr.Snap(m, c, dt, "step 1: attacker fills the set (dt first)")
			op := func(va mem.VAddr) {
				if nta {
					c.PrefetchNTA(va)
				} else {
					c.Load(va)
				}
			}
			timedOp := func(va mem.VAddr) int64 {
				if nta {
					return c.TimedPrefetchNTA(va)
				}
				return c.TimedLoad(va)
			}
			for it := 0; it < 2; it++ {
				caseName := "(a) victim accessed dt"
				if it == 1 {
					caseName = "(b) victim idle"
				}
				c.WaitUntil(window + int64(it+1)*window)
				tr.Snap(m, c, dt, fmt.Sprintf("step 2 %s: after the wait window", caseName))
				op(ls[w-1])
				tr.Snap(m, c, dt, "step 3: conflict on l(w-1)")
				t := timedOp(dt)
				verdicts[it] = !th.IsMiss(t)
				tr.Snap(m, c, dt, fmt.Sprintf("step 4: timed re-access of dt: %d cycles -> accessed=%v", t, verdicts[it]))
				// Step 5 (v1-style revert for both walks).
				c.Flush(dt)
				c.Flush(ls[w-1])
				op(dt)
				op(ls[0])
				if !nta {
					for i := 1; i < w-1; i++ {
						c.Load(ls[i])
					}
				}
				tr.Snap(m, c, dt, "step 5: state reverted")
			}
		})
		m.Run()
	})

	ctx.Printf("%s", tr.Render())
	ok := 0.0
	if verdicts[0] && !verdicts[1] {
		ok = 1
	}
	ctx.Printf("verdicts: accessed=%v idle=%v (want true,false)\n", verdicts[0], verdicts[1])
	res.Metric("state_walk_correct", ok)
	return res, nil
}

func runFig9(ctx *Context) (*Result, error)  { return stateWalk(ctx, "fig9", false) }
func runFig10(ctx *Context) (*Result, error) { return stateWalk(ctx, "fig10", true) }

func runFig12(ctx *Context) (*Result, error) {
	res := &Result{}
	iters := ctx.Trials(2000)
	paper := map[string][3]float64{
		"skylake":  {1601, 1165, 873},
		"kabylake": {1767, 1369, 1054},
	}
	variants := []attack.RefreshVariant{attack.ReloadRefresh, attack.PrefetchRefreshV1, attack.PrefetchRefreshV2}
	err := ctx.EachPlatform(func(sub *Context, cfg hier.Config) error {
		sub.Printf("\n%s\n", cfg.Name)
		// Each variant runs against its own machine, so the three attacks
		// shard across free workers.
		results := make([]attack.RefreshResult, len(variants))
		sub.Parallel(len(variants), func(i int, src sim.MachineSource) {
			seed := sub.SeedFor(variants[i].String())
			results[i] = attack.RunRefresh(src.NewMachine(cfg, 1<<30, seed), variants[i],
				attack.RefreshConfig{Iterations: iters}, seed)
		})
		rows := [][]string{}
		var means [3]float64
		var all [][]int64
		for i, v := range variants {
			r := results[i]
			means[i] = stats.Mean(r.IterLatencies)
			all = append(all, r.IterLatencies)
			rows = append(rows, []string{
				v.String(),
				fmt.Sprintf("%.0f", means[i]),
				fmt.Sprintf("%.0f", paper[shortName(cfg)][i]),
				fmt.Sprintf("%.1f%%", 100*r.Accuracy),
			})
		}
		renderTable(sub, []string{"attack", "iteration mean (cyc)", "paper (cyc)", "detection accuracy"}, rows)
		lo := stats.NewCDF(all[2]).Quantile(0.02)
		hi := stats.NewCDF(all[0]).Quantile(0.999)
		for i, v := range variants {
			sub.Printf("%s", stats.NewCDF(all[i]).Render("  CDF "+v.String(), lo, hi, 56))
		}
		res.Metric(shortName(cfg)+"/reload_refresh_mean", means[0])
		res.Metric(shortName(cfg)+"/prefetch_refresh_v1_mean", means[1])
		res.Metric(shortName(cfg)+"/prefetch_refresh_v2_mean", means[2])
		return nil
	})
	return res, err
}

func runTable3(ctx *Context) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	// Each variant runs on its own machine, so the three attacks shard
	// across free workers.
	variants := []attack.RefreshVariant{attack.ReloadRefresh, attack.PrefetchRefreshV1, attack.PrefetchRefreshV2}
	results := make([]attack.RefreshResult, len(variants))
	ctx.Parallel(len(variants), func(i int, src sim.MachineSource) {
		results[i] = attack.RunRefresh(src.NewMachine(cfg, 1<<30, ctx.Seed), variants[i],
			attack.RefreshConfig{Iterations: ctx.Trials(300)}, ctx.Seed)
	})
	rows := [][]string{}
	for i, v := range variants {
		r := results[i]
		rows = append(rows, []string{
			v.String(),
			fmt.Sprintf("%d", r.Revert.Flushes),
			fmt.Sprintf("%d", r.Revert.DRAMAccesses),
			fmt.Sprintf("%d", r.Revert.LLCAccesses),
			fmt.Sprintf("%.1f%%", 100*r.Accuracy),
		})
		res.Metric(fmt.Sprintf("variant%d/flushes", v), float64(r.Revert.Flushes))
		res.Metric(fmt.Sprintf("variant%d/dram", v), float64(r.Revert.DRAMAccesses))
		res.Metric(fmt.Sprintf("variant%d/llc", v), float64(r.Revert.LLCAccesses))
	}
	renderTable(ctx, []string{"attack method", "# flushes", "# DRAM accesses", "# LLC accesses", "accuracy"}, rows)
	return res, nil
}
