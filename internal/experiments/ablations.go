package experiments

import (
	"fmt"

	"leakyway/internal/channel"
	"leakyway/internal/hier"
	"leakyway/internal/policy"
	"leakyway/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "ablate-sets",
		Title: "Ablation — one-set vs two-set NTP+NTP (Section IV-B2)",
		Paper: "a single set must space out the prefetches around the in-flight window; two sets pipeline it away",
		Run:   runAblateSets,
	})
	register(Experiment{
		ID:    "ablate-hwpf",
		Title: "Ablation — hardware prefetchers enabled during the attack",
		Paper: "the attack strides whole LLC periods, so the page-local prefetchers never engage (Section III methodology note)",
		Run:   runAblateHWPF,
	})
	register(Experiment{
		ID:    "ablate-policy",
		Title: "Ablation — NTP+NTP against hardened LLC insertion policies (Section VI-D)",
		Paper: "inserting loads at age 1 and NTA at age 2 removes the guaranteed candidate; the channel stops working reliably",
		Run:   runAblatePolicy,
	})
}

func runAblateSets(ctx *Context) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	bits := ctx.Trials(1500)
	base := channel.DefaultConfig(cfg.Name, cfg.FreqGHz)
	base.NoisePeriod = 0

	rows := [][]string{}
	type variant struct {
		name    string
		sets    int
		recvOff int64
	}
	variants := []variant{
		{"two sets, pipelined (Figure 7)", 2, 450},
		{"one set, spaced receiver (offset 600)", 1, 600},
		{"one set, receiver inside the in-flight window (offset 60)", 1, 60},
	}
	// Flatten the variant × interval grid: every cell is an independent
	// transmission on its own machine, sharded across free workers.
	intervals := []int64{1200, 1300, 1500, 1800, 2200}
	reps := make([]channel.Report, len(variants)*len(intervals))
	ctx.Parallel(len(reps), func(cell int, src sim.MachineSource) {
		v := variants[cell/len(intervals)]
		seed := ctx.ShardSeed(cell)
		m := src.NewMachine(cfg, 1<<30, seed)
		c := base
		c.Sets = v.sets
		c.ReceiverOffset = v.recvOff
		c.Interval = intervals[cell%len(intervals)]
		reps[cell], _ = channel.RunNTPNTP(m, c, channel.RandomMessage(bits, seed))
	})
	var caps []float64
	for vi, v := range variants {
		best := -1.0
		var bestRep channel.Report
		for ii := range intervals {
			rep := reps[vi*len(intervals)+ii]
			if rep.CapacityKBps > best {
				best = rep.CapacityKBps
				bestRep = rep
			}
		}
		caps = append(caps, best)
		rows = append(rows, []string{v.name,
			fmt.Sprintf("%.1f KB/s", best),
			fmt.Sprintf("%.2f%% at %d cyc", 100*bestRep.BER, bestRep.Interval)})
	}
	renderTable(ctx, []string{"configuration", "peak capacity", "BER at peak"}, rows)
	res.Metric("two_set_peak", caps[0])
	res.Metric("one_set_spaced_peak", caps[1])
	res.Metric("one_set_inflight_peak", caps[2])
	return res, nil
}

func runAblateHWPF(ctx *Context) (*Result, error) {
	res := &Result{}
	prefetchers := func(on bool) func(*hier.Config) {
		return func(p *hier.Config) { p.HWPrefetch.AdjacentLine, p.HWPrefetch.Stream = on, on }
	}
	variantTable(ctx, res, "hardware prefetchers", []platformVariant{
		{"disabled", "hwpf_off", prefetchers(false), ctx.ShardSeed(0)},
		{"adjacent-line + stream enabled", "hwpf_on", prefetchers(true), ctx.ShardSeed(1)},
	})
	return res, nil
}

func runAblatePolicy(ctx *Context) (*Result, error) {
	res := &Result{}
	variantTable(ctx, res, "LLC policy", []platformVariant{
		{"stock Intel quad-age (load=2, NTA=3)", "stock", func(p *hier.Config) { p.LLCPolicy = policy.NewQuadAge() }, ctx.SeedFor("stock")},
		{"countermeasure (load=1, NTA=2)", "countermeasure", func(p *hier.Config) { p.LLCPolicy = policy.NewQuadAgeCountermeasure() }, ctx.SeedFor("countermeasure")},
		{"SRRIP-HP", "srrip", func(p *hier.Config) { p.LLCPolicy = policy.NewSRRIP() }, ctx.SeedFor("srrip")},
	})
	ctx.Printf("the hardened insertion ages break the one-way-competition primitive, as Section VI-D predicts\n")
	return res, nil
}
