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
		ID:    "stealth",
		Title: "Extension — victim-side stealth: what the victim can notice (Section V-B1)",
		Paper: "Reload+Refresh is 'much stealthier (on the victim's side) compared to prior LLC attacks such as Flush+Reload'",
		Run:   runStealth,
	})
}

// runStealth runs each attack against a victim that accesses the shared
// line once per window and records its *own* latencies — the signal a
// self-monitoring victim (or a performance-counter-based detector) sees.
// Flush+Reload forces the victim to take a DRAM miss on every access;
// the refresh attacks leave the victim hitting the LLC.
func runStealth(ctx *Context) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	iters := ctx.Trials(800)
	const window = int64(6000)

	type outcome struct {
		mean     float64
		missFrac float64
	}

	// Every attack stages LLCWays congruent lines, Flush+Reload included,
	// so all three map the same frames.
	run := func(src sim.MachineSource, name string, monitor func(*sim.Core, attack.Shared)) outcome {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		sh, err := attack.StageShared(m, cfg.LLCWays)
		if err != nil {
			failf("stealth", name+": stage shared line", err)
		}
		var vlat []int64
		misses := 0
		m.SpawnDaemon("victim", 1, sh.Victim, func(c *sim.Core) {
			for i := 0; ; i++ {
				c.WaitUntil(attack.EpochStart + int64(i)*window + window/2)
				r := c.Load(sh.DT)
				vlat = append(vlat, r.Latency)
				if r.Level == hier.LevelMem {
					misses++
				}
			}
		})
		m.Spawn("attacker", 0, sh.Attacker, func(c *sim.Core) { monitor(c, sh) })
		m.Run()
		frac := 0.0
		if len(vlat) > 0 {
			frac = float64(misses) / float64(len(vlat))
		}
		return outcome{stats.Mean(vlat), frac}
	}

	classic := attack.ClassicConfig{Iterations: iters, Window: window}
	refresh := attack.RefreshConfig{Iterations: iters, Window: window}
	attacks := []struct {
		name, key string
		monitor   func(*sim.Core, attack.Shared)
	}{
		{"Flush+Reload", "flush_reload", func(c *sim.Core, sh attack.Shared) { attack.FlushReload.Monitor(c, sh, classic) }},
		// The refresh attacks observe ages and put dt back in the LLC
		// before the next window, so the victim's accesses stay hits.
		{"Reload+Refresh", "reload_refresh", func(c *sim.Core, sh attack.Shared) { attack.ReloadRefresh.Monitor(c, sh, refresh) }},
		{"Prefetch+Refresh v2", "prefetch_refresh", func(c *sim.Core, sh attack.Shared) { attack.PrefetchRefreshV2.Monitor(c, sh, refresh) }},
	}

	// Each attack runs on its own machine, so the three shard across free
	// workers.
	outcomes := make([]outcome, len(attacks))
	ctx.Parallel(len(attacks), func(i int, src sim.MachineSource) {
		outcomes[i] = run(src, attacks[i].name, attacks[i].monitor)
	})
	rows := [][]string{}
	for i, o := range outcomes {
		res.Metric(attacks[i].key+"_victim_mean", o.mean)
		res.Metric(attacks[i].key+"_victim_missfrac", o.missFrac)
		rows = append(rows, []string{
			attacks[i].name,
			fmt.Sprintf("%.1f cycles", o.mean),
			fmt.Sprintf("%.1f%%", 100*o.missFrac),
		})
	}
	renderTable(ctx, []string{"attack", "victim mean access latency", "victim DRAM-miss fraction"}, rows)
	ctx.Printf("under Flush+Reload every victim access is a DRAM miss a detector can count;\n")
	ctx.Printf("the refresh attacks keep the victim hitting the cache — the paper's stealth claim\n")
	return res, nil
}
