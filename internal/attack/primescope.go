package attack

import (
	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// ScopeVariant selects the preparation step of the scope attack.
type ScopeVariant int

const (
	// PrimeScope is the original attack: the 192-reference Listing 1
	// pattern leaves the scope line L1-resident and (by fill order) the
	// LLC eviction candidate.
	PrimeScope ScopeVariant = iota
	// PrimePrefetchScope is the paper's improvement (Listing 2): prime
	// the other lines twice and install the scope line with PREFETCHNTA —
	// 31 references on our 16-line eviction set (the paper primes 16
	// non-scope lines for 33; we keep the scope line inside the 16 so
	// that after each detection the set is exactly full).
	PrimePrefetchScope
)

// String implements fmt.Stringer.
func (v ScopeVariant) String() string {
	if v == PrimeScope {
		return "Prime+Scope"
	}
	return "Prime+Prefetch+Scope"
}

// ScopeConfig parameterizes a scope-attack run.
type ScopeConfig struct {
	// Iterations is the number of prepare→scope cycles to run.
	Iterations int
	// VictimPeriod is the victim's access period (1.5K cycles in the
	// paper's false-negative experiment).
	VictimPeriod int64
	// ScopeTimeout bounds one scoping phase; after it the attacker
	// re-prepares (standard practice against lost events).
	ScopeTimeout int64
}

// ScopeResult reports the run.
type ScopeResult struct {
	Variant ScopeVariant
	// PrepLatencies is the cost of each preparation step (Figure 11).
	PrepLatencies []int64
	// PrepRefs is the number of cache references per preparation.
	PrepRefs int
	// Detections are the cycle times at which the attacker observed a
	// victim access.
	Detections []int64
	// VictimAccesses are the ground-truth access times.
	VictimAccesses []int64
	// FalseNegativeRate is the fraction of victim accesses with no
	// detection inside the following period.
	FalseNegativeRate float64
}

// RunScope mounts the scope attack on m, which must not have run yet, and
// measures preparation latency and event coverage.
func RunScope(m *sim.Machine, variant ScopeVariant, cfg ScopeConfig) ScopeResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.VictimPeriod <= 0 {
		cfg.VictimPeriod = 1500
	}
	if cfg.ScopeTimeout <= 0 {
		cfg.ScopeTimeout = 2 * cfg.VictimPeriod
	}
	res := ScopeResult{Variant: variant}

	// The scope line anchors the target set; both variants use a 16-line
	// eviction set with the scope line at index 0 (as in Listing 1). The
	// prefetch variant primes the 15 non-scope lines twice and installs
	// the scope line with PREFETCHNTA: 31 references — after a detection
	// the target set holds exactly the 15 primed lines plus the victim's
	// line, so the single NTA fill reliably displaces the victim's line,
	// which maps to the same LLC set.
	sc, err := StageScope(m)
	if err != nil {
		panic(err)
	}
	evset, scopeLine := sc.EvSet, sc.EvSet[0]
	victim := SpawnPeriodicVictim(m, 1, sc.Victim, sc.VictimLine, cfg.VictimPeriod)

	var attackEnd int64
	m.Spawn("attacker", 0, sc.Attacker, func(c *sim.Core) {
		th := core.Calibrate(c, 48)
		// The priming order rotates across iterations (see
		// core.RotateView).
		view := make([]mem.VAddr, len(evset))
		for it := 0; it < cfg.Iterations; it++ {
			core.RotateView(view, evset, it)
			t0 := c.Now()
			var refs int
			if variant == PrimeScope {
				refs = core.PrimeScopePrepare(c, view)
			} else {
				refs = core.PrimePrefetchScopePrepare(c, view, 2)
			}
			res.PrepRefs = refs
			res.PrepLatencies = append(res.PrepLatencies, c.Now()-t0)

			// Scope: hammer the scope line until it leaves the L1
			// (the victim's fill evicted it from the inclusive LLC).
			deadline := c.Now() + cfg.ScopeTimeout
			for c.Now() < deadline {
				if t := c.TimedLoad(scopeLine); t > th.L1Threshold {
					res.Detections = append(res.Detections, c.Now())
					break
				}
			}
		}
		attackEnd = c.Now()
	})
	m.Run()

	res.VictimAccesses = victim.Accesses
	res.FalseNegativeRate = falseNegativeRate(victim.Accesses, res.Detections, cfg.VictimPeriod, attackEnd-cfg.VictimPeriod)
	return res
}

// falseNegativeRate matches each detection to the most recent unmatched
// victim access within one period before it; unmatched accesses are false
// negatives. Accesses after the horizon (the end of the attack, minus one
// period of slack) are ignored.
func falseNegativeRate(accesses, detections []int64, period, horizon int64) float64 {
	if len(accesses) == 0 {
		return 0
	}
	matched := 0
	total := 0
	di := 0
	for _, a := range accesses {
		if a > horizon {
			break
		}
		total++
		for di < len(detections) && detections[di] < a {
			di++
		}
		if di < len(detections) && detections[di]-a <= period {
			matched++
			di++
		}
	}
	if total == 0 {
		return 1
	}
	return 1 - float64(matched)/float64(total)
}
