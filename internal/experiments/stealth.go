package experiments

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
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
	const start = int64(50_000)

	type outcome struct {
		mean     float64
		missFrac float64
	}

	run := func(src sim.MachineSource, name string, attacker func(c *sim.Core, th core.Thresholds, dt mem.VAddr, ls []mem.VAddr, w int)) outcome {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		attackerAS := m.NewSpace()
		victimAS := m.NewSpace()
		dt, err := attackerAS.Alloc(mem.PageSize)
		if err != nil {
			failf("stealth", name+": alloc probe line", err)
		}
		if err := victimAS.MapShared(attackerAS, dt, mem.PageSize); err != nil {
			failf("stealth", name+": map shared probe line", err)
		}
		w := cfg.LLCWays
		ls := core.MustCongruentLines(m, attackerAS, dt, w)

		var vlat []int64
		misses := 0
		m.SpawnDaemon("victim", 1, victimAS, func(c *sim.Core) {
			for i := 0; ; i++ {
				c.WaitUntil(start + int64(i)*window + window/2)
				r := c.Load(dt)
				vlat = append(vlat, r.Latency)
				if r.Level == hier.LevelMem {
					misses++
				}
			}
		})
		m.Spawn("attacker", 0, attackerAS, func(c *sim.Core) {
			th := core.Calibrate(c, 48)
			attacker(c, th, dt, ls, w)
		})
		m.Run()
		frac := 0.0
		if len(vlat) > 0 {
			frac = float64(misses) / float64(len(vlat))
		}
		return outcome{stats.Mean(vlat), frac}
	}

	attacks := []struct {
		name, key string
		attacker  func(c *sim.Core, th core.Thresholds, dt mem.VAddr, ls []mem.VAddr, w int)
	}{
		// Flush+Reload: flush, wait, reload.
		{"Flush+Reload", "flush_reload", func(c *sim.Core, th core.Thresholds, dt mem.VAddr, ls []mem.VAddr, w int) {
			c.Flush(dt)
			for it := 0; it < iters; it++ {
				c.WaitUntil(start + int64(it+1)*window)
				c.TimedLoad(dt)
				c.Flush(dt)
			}
		}},

		// Reload+Refresh: the Figure 9 loop (age observation, no flush seen
		// by the victim between its accesses — its hits stay hits).
		{"Reload+Refresh", "reload_refresh", func(c *sim.Core, th core.Thresholds, dt mem.VAddr, ls []mem.VAddr, w int) {
			prepareRR := func() {
				all := append([]mem.VAddr{dt}, ls...)
				for round := 0; round < 3; round++ {
					for _, va := range all {
						c.Load(va)
					}
				}
				for _, va := range all {
					c.Flush(va)
				}
				c.Fence()
				c.Load(dt)
				for i := 0; i < w-1; i++ {
					c.Load(ls[i])
				}
			}
			prepareRR()
			for it := 0; it < iters; it++ {
				c.WaitUntil(start + int64(it+1)*window)
				c.Load(ls[w-1])
				c.TimedLoad(dt)
				c.Flush(dt)
				c.Flush(ls[w-1])
				c.Load(dt)
				c.Load(ls[0])
				for i := 1; i < w-1; i++ {
					c.Load(ls[i])
				}
			}
		}},

		// Prefetch+Refresh v2: the cheapest reset.
		{"Prefetch+Refresh v2", "prefetch_refresh", func(c *sim.Core, th core.Thresholds, dt mem.VAddr, ls []mem.VAddr, w int) {
			all := append([]mem.VAddr{dt}, ls...)
			for round := 0; round < 3; round++ {
				for _, va := range all {
					c.Load(va)
				}
			}
			for _, va := range all {
				c.Flush(va)
			}
			c.Fence()
			c.PrefetchNTA(dt)
			for i := 0; i < w-1; i++ {
				c.PrefetchNTA(ls[i])
			}
			conflict, spare := ls[w-1], ls[0]
			for it := 0; it < iters; it++ {
				c.WaitUntil(start + int64(it+1)*window)
				c.PrefetchNTA(conflict)
				accessed := !th.IsMiss(c.TimedPrefetchNTA(dt))
				c.Flush(dt)
				c.PrefetchNTA(dt)
				if accessed {
					conflict, spare = spare, conflict
				}
			}
		}},
	}

	// Each attack runs on its own machine, so the three shard across free
	// workers.
	outcomes := make([]outcome, len(attacks))
	ctx.Parallel(len(attacks), func(i int, src sim.MachineSource) {
		outcomes[i] = run(src, attacks[i].name, attacks[i].attacker)
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
