package attack

import (
	"leakyway/internal/core"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

// ClassicVariant selects one of the classic shared-memory cache attacks the
// paper builds on (Section II-C). They serve as baselines for the
// replacement-state attacks and as regression anchors for the simulator's
// flush timing and inclusion machinery.
type ClassicVariant int

const (
	// FlushReload flushes the shared line each iteration and times a
	// reload to see whether the victim brought it back.
	FlushReload ClassicVariant = iota
	// FlushFlush times the CLFLUSH itself: flushing a cached line is
	// slower than flushing an absent one, so the attacker never issues
	// a demand access to the shared line at all.
	FlushFlush
	// EvictReload replaces the flush with LLC set conflicts, for
	// environments without CLFLUSH.
	EvictReload
)

// String implements fmt.Stringer.
func (v ClassicVariant) String() string {
	switch v {
	case FlushReload:
		return "Flush+Reload"
	case FlushFlush:
		return "Flush+Flush"
	}
	return "Evict+Reload"
}

// ClassicConfig parameterizes a run.
type ClassicConfig struct {
	// Iterations is the number of monitored windows.
	Iterations int
	// Window is the cycle length of a monitoring window.
	Window int64
}

// ClassicResult reports a run.
type ClassicResult struct {
	Variant ClassicVariant
	// IterLatencies is the attacker's per-iteration cost.
	IterLatencies []int64
	// Truth and Detected are per-window ground truth and verdicts.
	Truth, Detected []bool
	// Accuracy is the fraction of windows classified correctly.
	Accuracy float64
	// TargetAccesses counts the attacker's demand accesses to the shared
	// line per run — the Flush+Flush stealth argument is that it needs
	// none.
	TargetAccesses int
}

// RunClassic mounts the chosen classic attack on m, which must not have run
// yet, against a windowed victim sharing one line with the attacker; seed
// drives the victim's access pattern.
func RunClassic(m *sim.Machine, variant ClassicVariant, cfg ClassicConfig, seed int64) ClassicResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.Window <= 0 {
		// Evict+Reload's conflict-based reset is an order of magnitude
		// slower than CLFLUSH, so its minimum usable window is longer —
		// the very cost asymmetry that motivates the paper's
		// prefetch-based resets.
		if variant == EvictReload {
			cfg.Window = 10_000
		} else {
			cfg.Window = 5000
		}
	}
	lines := 0
	if variant == EvictReload {
		lines = m.H.Config().LLCWays
	}
	sh, err := StageShared(m, lines)
	if err != nil {
		panic(err)
	}
	pattern, truth := windowPattern(uint64(seed)*3+5, cfg.Iterations)
	SpawnWindowedVictim(m, 1, sh.Victim, WindowedVictim{Target: sh.DT, Window: cfg.Window, Start: EpochStart, Pattern: pattern})

	var res ClassicResult
	m.Spawn("attacker", 0, sh.Attacker, func(c *sim.Core) { res = variant.Monitor(c, sh, cfg) })
	m.Run()

	res.Truth = truth
	res.Accuracy = accuracy(truth, res.Detected)
	return res
}

// Monitor is the attacker side of v, run on c in sh.Attacker; Evict+Reload
// evicts with sh.Lines, an LLC eviction set congruent with sh.DT. It
// calibrates, resets the line, then reads out cfg.Iterations windows of
// cfg.Window cycles; the result carries Variant, IterLatencies, Detected
// and TargetAccesses.
func (v ClassicVariant) Monitor(c *sim.Core, sh Shared, cfg ClassicConfig) ClassicResult {
	dt, ev := sh.DT, sh.Lines
	res := ClassicResult{
		Variant:       v,
		IterLatencies: make([]int64, 0, cfg.Iterations),
		Detected:      make([]bool, cfg.Iterations),
	}
	th := core.Calibrate(c, 48)
	// Flush+Flush threshold: between flush-absent and flush-present
	// timings, calibrated empirically.
	var flushTh int64
	if v == FlushFlush {
		var absent, present []int64
		for i := 0; i < 32; i++ {
			c.Flush(dt)
			c.Fence()
			absent = append(absent, c.TimedFlush(dt))
			c.Load(dt)
			c.Fence()
			present = append(present, c.TimedFlush(dt))
		}
		flushTh = int64((stats.Mean(absent) + stats.Mean(present)) / 2)
	}
	// Reset the line out of every cache before the epoch.
	c.Flush(dt)
	if v == EvictReload {
		// Pre-own the set so evictions work from iteration one.
		for round := 0; round < 2; round++ {
			for _, va := range ev {
				c.Load(va)
			}
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		c.WaitUntil(EpochStart + int64(it+1)*cfg.Window)
		t0 := c.Now()
		switch v {
		case FlushReload:
			t := c.TimedLoad(dt)
			res.TargetAccesses++
			res.Detected[it] = !th.IsMiss(t)
			c.Flush(dt)
		case FlushFlush:
			t := c.TimedFlush(dt)
			res.Detected[it] = t > flushTh
		case EvictReload:
			t := c.TimedLoad(dt)
			res.TargetAccesses++
			res.Detected[it] = !th.IsMiss(t)
			// Evict via set conflicts instead of CLFLUSH. The walk
			// order rotates per iteration so every eviction-set line
			// gets its LLC age refreshed over time; the shared line is
			// then the only never-refreshed line in the set and the
			// aging pass reliably selects it.
			for round := 0; round < 2; round++ {
				for k := range ev {
					c.Load(ev[(k+it)%len(ev)])
				}
			}
		}
		res.IterLatencies = append(res.IterLatencies, c.Now()-t0)
	}
	return res
}
