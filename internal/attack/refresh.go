package attack

import (
	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// RefreshVariant selects the replacement-state attack of Section V-B.
type RefreshVariant int

const (
	// ReloadRefresh is the original attack (Figure 9): demand loads fill
	// the set at age 2, and reverting the state costs 2 flushes, 2 DRAM
	// accesses and w-2 serialized LLC accesses per iteration.
	ReloadRefresh RefreshVariant = iota
	// PrefetchRefreshV1 (Figure 10) fills the set with PREFETCHNTA at
	// age 3: no aging pass ever fires, so the w-2 refresh accesses
	// disappear (2 flushes, 2 DRAM accesses).
	PrefetchRefreshV1
	// PrefetchRefreshV2 additionally swaps the roles of the two conflict
	// lines instead of restoring them (1 flush, 1 DRAM access).
	PrefetchRefreshV2
)

// String implements fmt.Stringer.
func (v RefreshVariant) String() string {
	switch v {
	case ReloadRefresh:
		return "Reload+Refresh"
	case PrefetchRefreshV1:
		return "Prefetch+Refresh v1"
	}
	return "Prefetch+Refresh v2"
}

// RevertOps counts the state-revert operations of one accessed-case
// iteration (Table III).
type RevertOps struct {
	Flushes      int
	DRAMAccesses int
	LLCAccesses  int
}

// RefreshConfig parameterizes a run.
type RefreshConfig struct {
	// Iterations is the number of monitored windows.
	Iterations int
	// Window is the cycle length of one monitoring window; the victim
	// access (if any) lands mid-window.
	Window int64
}

// RefreshResult reports a run.
type RefreshResult struct {
	Variant RefreshVariant
	// IterLatencies is the cost of the attacker's operations per
	// iteration, excluding the waiting window (Figure 12).
	IterLatencies []int64
	// Revert is the per-iteration revert cost in the victim-accessed
	// case (Table III).
	Revert RevertOps
	// Truth and Detected are the per-window ground truth and verdicts.
	Truth, Detected []bool
	// Accuracy is the fraction of windows classified correctly.
	Accuracy float64
}

// RunRefresh mounts the chosen attack on m, which must not have run yet;
// seed drives the victim's access pattern. The victim and attacker share
// the monitored line dt (a deduplicated/shared-library page), per the
// Reload+Refresh threat model.
func RunRefresh(m *sim.Machine, variant RefreshVariant, cfg RefreshConfig, seed int64) RefreshResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.Window <= 0 {
		cfg.Window = 5000
	}
	sh, err := StageShared(m, m.H.Config().LLCWays)
	if err != nil {
		panic(err)
	}
	pattern, truth := windowPattern(uint64(seed)*2+1, cfg.Iterations)
	SpawnWindowedVictim(m, 1, sh.Victim, WindowedVictim{Target: sh.DT, Window: cfg.Window, Start: EpochStart, Pattern: pattern})

	var res RefreshResult
	m.Spawn("attacker", 0, sh.Attacker, func(c *sim.Core) { res = variant.Monitor(c, sh, cfg) })
	m.Run()

	res.Truth = truth
	res.Accuracy = accuracy(truth, res.Detected)
	res.Revert = revertOps(variant, len(sh.Lines))
	return res
}

// Monitor is the attacker side of v, run on c in sh.Attacker with sh.Lines
// holding w = LLCWays lines congruent with sh.DT: l0..l(w-2) fill the set
// after dt and l(w-1) is the conflict line. It calibrates, prepares the set,
// then reads out cfg.Iterations windows of cfg.Window cycles; the result
// carries Variant, IterLatencies and Detected.
func (v RefreshVariant) Monitor(c *sim.Core, sh Shared, cfg RefreshConfig) RefreshResult {
	dt, ls, w := sh.DT, sh.Lines, len(sh.Lines)
	res := RefreshResult{
		Variant:       v,
		IterLatencies: make([]int64, 0, cfg.Iterations),
		Detected:      make([]bool, cfg.Iterations),
	}
	th := core.Calibrate(c, 48)
	PrepareCleanSet(c, dt, ls, v != ReloadRefresh)

	conflict, spare := ls[w-1], ls[0]
	for it := 0; it < cfg.Iterations; it++ {
		// Step 2: wait out window it; the victim access (if any) landed
		// mid-window.
		c.WaitUntil(EpochStart + int64(it+1)*cfg.Window)
		t0 := c.Now()
		switch v {
		case ReloadRefresh:
			// Step 3: force a conflict with a demand load.
			c.Load(ls[w-1])
			// Step 4: timed reload — fast means the victim's access
			// kept dt alive.
			res.Detected[it] = !th.IsMiss(c.TimedLoad(dt))
			// Step 5: revert — flush the two moved lines, reload dt
			// and l0, refresh l1..l(w-2).
			c.Flush(dt)
			c.Flush(ls[w-1])
			c.Load(dt)
			c.Load(ls[0])
			for i := 1; i < w-1; i++ {
				c.Load(ls[i])
			}
		case PrefetchRefreshV1:
			c.PrefetchNTA(ls[w-1])
			res.Detected[it] = !th.IsMiss(c.TimedPrefetchNTA(dt))
			c.Flush(dt)
			c.Flush(ls[w-1])
			c.PrefetchNTA(dt)
			c.PrefetchNTA(ls[0])
		case PrefetchRefreshV2:
			c.PrefetchNTA(conflict)
			accessed := !th.IsMiss(c.TimedPrefetchNTA(dt))
			res.Detected[it] = accessed
			c.Flush(dt)
			c.PrefetchNTA(dt)
			if accessed {
				// The conflict line displaced the spare; they
				// exchange roles (the paper's role swap).
				conflict, spare = spare, conflict
			}
		}
		res.IterLatencies = append(res.IterLatencies, c.Now()-t0)
	}
	return res
}

// revertOps returns the Table III operation counts for the victim-accessed
// case.
func revertOps(variant RefreshVariant, w int) RevertOps {
	switch variant {
	case ReloadRefresh:
		return RevertOps{Flushes: 2, DRAMAccesses: 2, LLCAccesses: w - 2}
	case PrefetchRefreshV1:
		return RevertOps{Flushes: 2, DRAMAccesses: 2}
	}
	return RevertOps{Flushes: 1, DRAMAccesses: 1}
}

// PrepareCleanSet takes ownership of the whole target set: load every line
// to claim all ways, flush them all (the set is then empty), and refill in
// order — dt first, then l0..l(w-2) — with loads (age 2, Figure 9) or
// non-temporal prefetches (age 3, Figure 10).
func PrepareCleanSet(c *sim.Core, dt mem.VAddr, ls []mem.VAddr, nta bool) {
	w := len(ls)
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
	fill := func(va mem.VAddr) {
		if nta {
			c.PrefetchNTA(va)
		} else {
			c.Load(va)
		}
	}
	fill(dt)
	for i := 0; i < w-1; i++ {
		fill(ls[i])
	}
}

// xorshift is a tiny deterministic PRNG for victim patterns (avoids pulling
// math/rand into the attacker loop).
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
