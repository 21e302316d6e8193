package experiments

import (
	"fmt"
	"strings"

	"leakyway/internal/policy"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1 — quad-age LRU state walk of one LLC set",
		Paper: "a hit decrements the age; a miss evicts the first age-3 way, aging everyone when none exists (l6 evicts l0, l7 evicts l1)",
		Run:   runFig1,
	})
}

func runFig1(ctx *Context) (*Result, error) {
	q := policy.NewQuadAge()
	set := q.NewSet(6)
	names := []string{"l0", "l1", "l2", "l3", "l4", "l5"}

	// Build the initial state of Figure 1: ages l0:2 l1:3 l2:0 l3:2
	// l4:1 l5:1 (NTA fill yields 3, load fill 2, demand hits decrement).
	build := []struct {
		cls  policy.AccessClass
		hits int
	}{{policy.ClassLoad, 0}, {policy.ClassNTA, 0}, {policy.ClassLoad, 2}, {policy.ClassLoad, 0}, {policy.ClassLoad, 1}, {policy.ClassLoad, 1}}
	for w, b := range build {
		set.OnFill(w, b.cls)
		for i := 0; i < b.hits; i++ {
			set.OnHit(w, policy.ClassLoad)
		}
	}
	show := func(step string) {
		ages := policy.Ages(set, 6)
		cells := make([]string, len(ages))
		for w, a := range ages {
			cells[w] = fmt.Sprintf("%s:%d", names[w], a)
		}
		ctx.Printf("  %-46s | %s |\n", step, strings.Join(cells, " "))
	}
	res := &Result{}
	show("initial state")

	set.OnHit(1, policy.ClassLoad)
	show("load l1, hits in the LLC")

	v := set.Victim(policy.AllWays(6))
	evicted1 := names[v]
	set.OnInvalidate(v)
	set.OnFill(v, policy.ClassLoad)
	names[v] = "l6"
	show(fmt.Sprintf("load l6, misses and evicts %s", evicted1))

	v = set.Victim(policy.AllWays(6))
	evicted2 := names[v]
	set.OnInvalidate(v)
	set.OnFill(v, policy.ClassLoad)
	names[v] = "l7"
	show(fmt.Sprintf("load l7, misses and evicts %s", evicted2))

	ok := 0.0
	if evicted1 == "l0" && evicted2 == "l1" {
		ok = 1
	}
	res.Metric("eviction_order_matches_paper", ok)
	return res, nil
}
