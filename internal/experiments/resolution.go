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
		ID:    "resolution",
		Title: "Extension — temporal resolution: scope hammering vs set probing (Section V-A1)",
		Paper: "Prime+Scope locates a victim access within ≈70 cycles; Prime+Probe's resolution is over 2000 cycles",
		Run:   runResolution,
	})
}

// runResolution measures the delay between a victim access and the
// attacker's detection of it. The scope attacker hammers one L1-resident
// line (~70-cycle granularity); the probing attacker re-walks the whole
// 16-line set per poll (millisecond-class granularity in comparison).
func runResolution(ctx *Context) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	trials := ctx.Trials(1000)

	measure := func(src sim.MachineSource, scope bool) []int64 {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		sc, err := attack.StageScope(m)
		if err != nil {
			failf("resolution", "stage scope attack", err)
		}
		evset, dv := sc.EvSet, sc.VictimLine

		// The victim accesses at jittered times the harness records.
		accesses := make([]int64, 0, trials)
		m.SpawnDaemon("victim", 1, sc.Victim, func(c *sim.Core) {
			x := uint64(ctx.Seed)*2 + 1
			for {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				c.Spin(9000 + int64(x%5000))
				if res := c.Load(dv); res.Level == hier.LevelMem {
					accesses = append(accesses, c.Now())
				}
			}
		})

		var delays []int64
		m.Spawn("attacker", 0, sc.Attacker, func(c *sim.Core) {
			th := core.Calibrate(c, 48)
			view := make([]mem.VAddr, len(evset))
			for it := 0; it < trials; it++ {
				core.RotateView(view, evset, it)
				core.PrimePrefetchScopePrepare(c, view, 2)
				deadline := c.Now() + 40_000
				var detected int64
				for c.Now() < deadline {
					if scope {
						// Scope: hammer the candidate line.
						if t := c.TimedLoad(view[0]); t > th.L1Threshold {
							detected = c.Now()
							break
						}
					} else {
						// Probe: walk the whole set and time it.
						var sum int64
						for _, va := range view {
							sum += c.TimedLoad(va)
						}
						if sum > int64(len(view))*(th.L1Threshold+30) {
							detected = c.Now()
							break
						}
					}
				}
				if detected == 0 {
					continue
				}
				// Pair with the most recent victim access.
				var last int64 = -1
				for i := len(accesses) - 1; i >= 0; i-- {
					if accesses[i] <= detected {
						last = accesses[i]
						break
					}
				}
				if last > 0 && detected-last < 30_000 {
					delays = append(delays, detected-last)
				}
			}
		})
		m.Run()
		return delays
	}

	// The scope and probing measurements each own a machine, so they shard
	// across free workers.
	delays := make([][]int64, 2)
	ctx.Parallel(len(delays), func(i int, src sim.MachineSource) {
		delays[i] = measure(src, i == 0)
	})
	scopeDelays, probeDelays := delays[0], delays[1]
	sScope, sProbe := stats.Summarize(scopeDelays), stats.Summarize(probeDelays)
	rows := [][]string{
		{"scope hammering (Prime+Prefetch+Scope)", fmt.Sprintf("%d", sScope.N),
			fmt.Sprintf("%d", sScope.Median), fmt.Sprintf("%d", sScope.P95)},
		{"whole-set probing (Prime+Probe style)", fmt.Sprintf("%d", sProbe.N),
			fmt.Sprintf("%d", sProbe.Median), fmt.Sprintf("%d", sProbe.P95)},
	}
	renderTable(ctx, []string{"detection loop", "events", "median delay (cyc)", "p95 (cyc)"}, rows)
	ctx.Printf("the scope loop pins the victim access to within a couple of loads (paper: ≈70-cycle\n")
	ctx.Printf("granularity); a full-set probe can only bracket it to one whole probe pass\n")
	res.Metric("scope_median_delay", float64(sScope.Median))
	res.Metric("probe_median_delay", float64(sProbe.Median))
	return res, nil
}
