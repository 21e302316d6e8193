package experiments

import (
	"fmt"

	"leakyway/internal/hier"
	"leakyway/internal/policy"
)

func init() {
	register(Experiment{
		ID:    "defense",
		Title: "Extension — defense evaluation: isolation, hardened insertion, re-keying",
		Paper: "Section VI-D: isolation and randomization defenses against conflict-based channels also stop NTP+NTP",
		Run:   runDefense,
	})
}

func runDefense(ctx *Context) (*Result, error) {
	res := &Result{}
	ctx.Printf("NTP+NTP at 1500 cycles/bit under each defense:\n\n")
	variantTable(ctx, res, "defense", []platformVariant{
		{"undefended (stock Skylake)", "stock", func(*hier.Config) {}, ctx.SeedFor("stock")},
		{"way-partitioned LLC (4 ways/core isolation)", "partition", func(p *hier.Config) { p.LLCPartitionWays = 4 }, ctx.SeedFor("partition")},
		{"hardened insertion (load=1, NTA=2)", "hardened", func(p *hier.Config) { p.LLCPolicy = policy.NewQuadAgeCountermeasure() }, ctx.SeedFor("hardened")},
	})

	// Re-keying analysis: a randomized, periodically re-keyed index (e.g.
	// ScatterCache/PhantomCache-style) invalidates eviction sets at every
	// re-key, so the attacker must rebuild them each epoch. Combining the
	// measured Algorithm 2 construction cost (Figure 13 machinery) with
	// the channel's peak bounds the achievable rate per re-key period.
	ctx.Printf("\nre-keyed randomized index (analysis): eviction sets die at every re-key;\n")
	ctx.Printf("the channel can only run for period−buildTime out of every period.\n")
	const buildMs = 0.18 // measured Algorithm 2 construction time (fig13, Skylake)
	peak := res.Metrics["stock_capacity"]
	rkRows := [][]string{}
	for _, periodMs := range []float64{0.1, 0.25, 1, 10, 100} {
		frac := (periodMs - 2*buildMs) / periodMs // two target sets to rebuild
		if frac < 0 {
			frac = 0
		}
		eff := peak * frac
		rkRows = append(rkRows, []string{
			fmt.Sprintf("%.2f ms", periodMs),
			fmt.Sprintf("%.0f%%", 100*frac),
			fmt.Sprintf("%.1f KB/s", eff),
		})
		res.Metric(fmt.Sprintf("rekey_%gms_capacity", periodMs), eff)
	}
	renderTable(ctx, []string{"re-key period", "usable airtime", "capacity bound"}, rkRows)
	return res, nil
}
