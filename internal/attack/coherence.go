package attack

import (
	"leakyway/internal/core"
	"leakyway/internal/sim"
)

// CoherenceResult reports a coherence-state attack run (Yao et al., the
// paper's reference [67]): the attacker detects the victim's *writes* to a
// shared line purely from load timing — a write invalidates the attacker's
// private copy and leaves the line Modified remotely, so the attacker's
// next load misses its L1 and pays the cache-to-cache forwarding penalty.
// No flushes and no LLC evictions: stealthier than Flush+Reload and
// invisible to eviction-based detectors.
type CoherenceResult struct {
	// IterLatencies is the attacker's per-window cost.
	IterLatencies []int64
	// Truth and Detected are per-window ground truth (victim wrote) and
	// verdicts.
	Truth, Detected []bool
	// Accuracy is the fraction classified correctly.
	Accuracy float64
}

// RunCoherence mounts the write-detection attack on m, which must not have
// run yet, against a windowed victim that stores to the shared line in '1'
// windows; seed drives the victim's write pattern.
func RunCoherence(m *sim.Machine, cfg ClassicConfig, seed int64) CoherenceResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.Window <= 0 {
		cfg.Window = 5000
	}
	sh, err := StageShared(m, 0)
	if err != nil {
		panic(err)
	}
	pattern, truth := windowPattern(uint64(seed)*5+11, cfg.Iterations)
	m.SpawnDaemon("victim", 1, sh.Victim, func(c *sim.Core) {
		for i := 0; ; i++ {
			c.WaitUntil(EpochStart + int64(i)*cfg.Window + cfg.Window/2)
			if pattern[i%len(pattern)] {
				c.Store(sh.DT)
			}
		}
	})

	res := CoherenceResult{Truth: truth, Detected: make([]bool, cfg.Iterations)}
	m.Spawn("attacker", 0, sh.Attacker, func(c *sim.Core) {
		th := core.Calibrate(c, 48)
		c.Load(sh.DT) // take a private copy before the epoch
		for it := 0; it < cfg.Iterations; it++ {
			c.WaitUntil(EpochStart + int64(it+1)*cfg.Window)
			t0 := c.Now()
			// A write invalidated our copy: the reload leaves the
			// L1-hit band (LLC + forwarding penalty). No write: our
			// private copy is untouched and the load is an L1 hit.
			t := c.TimedLoad(sh.DT)
			res.Detected[it] = t > th.L1Threshold
			res.IterLatencies = append(res.IterLatencies, c.Now()-t0)
		}
	})
	m.Run()

	res.Accuracy = accuracy(truth, res.Detected)
	return res
}
