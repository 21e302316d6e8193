package experiments

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/evset"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "evset-algos",
		Title: "Extension — four ways to build an eviction set",
		Paper: "Figure 13 compares two; this adds group testing [62] and the huge-page shortcut",
		Run:   runEvsetAlgos,
	})
}

func runEvsetAlgos(ctx *Context) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	desired := 16
	if ctx.Quick {
		desired = 8
	}
	freqHz := cfg.FreqGHz * 1e9

	type row struct {
		name    string
		key     string
		r       evset.Result
		err     error
		correct int
		total   int
	}
	// Each algorithm builds against its own machine (seeded per
	// algorithm), so the four constructions shard across free workers —
	// the group-testing build alone used to dominate this experiment's
	// serial runtime.
	algos := []struct {
		name  string
		key   string
		build func(c *sim.Core, th core.Thresholds) (mem.VAddr, evset.Result, error)
	}{
		{"Algorithm 2 (prefetch)", "prefetch", func(c *sim.Core, th core.Thresholds) (mem.VAddr, evset.Result, error) {
			t := c.Alloc(mem.PageSize)
			r, err := evset.BuildPrefetch(c, t, evset.Options{
				Desired: desired, Pool: evset.NewPool(c, t, 512*desired), Thresholds: th,
			})
			return t, r, err
		}},
		{"access baseline [42]", "baseline", func(c *sim.Core, th core.Thresholds) (mem.VAddr, evset.Result, error) {
			t := c.Alloc(mem.PageSize)
			r, err := evset.BuildBaseline(c, t, evset.Options{
				Desired: desired, Pool: evset.NewPool(c, t, 2600*desired), Thresholds: th,
			})
			return t, r, err
		}},
		// Group testing must target the full associativity: a smaller
		// set cannot evict the target at all on a 16-way LLC.
		{"group testing [62]", "grouptest", func(c *sim.Core, th core.Thresholds) (mem.VAddr, evset.Result, error) {
			gtWant := cfg.LLCWays
			t := c.Alloc(mem.PageSize)
			r, err := evset.BuildGroupTesting(c, t, evset.Options{
				Desired: gtWant, Pool: evset.NewPool(c, t, 512*gtWant), Thresholds: th,
			})
			return t, r, err
		}},
		{"Algorithm 2 + huge pages", "hugepage", func(c *sim.Core, th core.Thresholds) (mem.VAddr, evset.Result, error) {
			ht, hp, err := evset.NewHugePool(c, cfg.LLCSetsPerSlice, 24*desired)
			if err != nil {
				return 0, evset.Result{}, err
			}
			r, err := evset.BuildPrefetch(c, ht, evset.Options{
				Desired: desired, Pool: hp, Thresholds: th,
			})
			return ht, r, err
		}},
	}

	rows := make([]row, len(algos))
	ctx.Parallel(len(algos), func(i int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<31, ctx.SeedFor(algos[i].key))
		as := m.NewSpace()
		rows[i] = row{name: algos[i].name, key: algos[i].key}
		var target mem.VAddr
		m.Spawn("attacker", 0, as, func(c *sim.Core) {
			th := core.Calibrate(c, 48)
			target, rows[i].r, rows[i].err = algos[i].build(c, th)
		})
		m.Run()
		rows[i].total = len(rows[i].r.Set)
		rows[i].correct = evset.Verify(m, as, target, rows[i].r.Set)
	})

	out := [][]string{}
	for i := range rows {
		status := fmt.Sprintf("%d/%d congruent", rows[i].correct, rows[i].total)
		if rows[i].err != nil {
			status = rows[i].err.Error()
		}
		out = append(out, []string{
			rows[i].name,
			fmt.Sprintf("%d", rows[i].r.MemRefs),
			fmt.Sprintf("%d", rows[i].r.Tested),
			fmt.Sprintf("%.3f ms", float64(rows[i].r.Cycles)/freqHz*1e3),
			status,
		})
		res.Metric(rows[i].key+"_refs", float64(rows[i].r.MemRefs))
		res.Metric(rows[i].key+"_congruent", float64(rows[i].correct))
	}
	renderTable(ctx, []string{"algorithm", "mem refs", "candidates", "time", "result"}, out)
	ctx.Printf("group testing stalls on a small evicting superset under quad-age (see evset docs);\n")
	ctx.Printf("huge pages shrink the candidate space %dx by exposing the set bits\n",
		cfg.LLCSetsPerSlice*mem.LineSize/mem.PageSize)
	return res, nil
}
