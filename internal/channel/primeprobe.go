package channel

import (
	"leakyway/internal/mem"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

// RunPrimeProbe transmits msg over the Prime+Probe baseline channel used
// for Table II / Figure 8: the sender loads (or not) one line per target
// set; the receiver probes each set with a timed walk of its w-line
// eviction set and re-primes with additional walks. Two sets carry two bits
// per iteration, as in the paper's comparison setup.
func RunPrimeProbe(m *sim.Machine, cfg Config, msg []bool) (Report, []bool) {
	mustValidRun(cfg, false, msg)
	const sets = 2
	ep, err := Setup(m, sets)
	if err != nil {
		panic(err)
	}
	// The receiver's eviction set per target set: DR and LLCWays-1 of
	// its filler lines.
	ways := m.H.Config().LLCWays
	rev := make([][]mem.VAddr, sets)
	for s := range rev {
		rev[s] = append([]mem.VAddr{ep.DR[s]}, ep.Filler[s][:ways-1]...)
	}
	interval := cfg.Interval
	n := len(msg)
	received := make([]bool, n)
	walks := cfg.PrimeWalks
	if walks <= 0 {
		walks = 2
	}

	m.Spawn("sender", 0, ep.SenderAS, func(c *sim.Core) {
		for it := 0; it*sets < n; it++ {
			c.WaitUntil(cfg.Start + int64(it)*interval + cfg.SenderOffset)
			for s := 0; s < sets; s++ {
				if i := it*sets + s; i < n {
					emitTxBit(c, i, msg[i])
					if msg[i] {
						c.Load(ep.DS[s])
					}
				}
			}
			c.Spin(cfg.ProtocolOverhead)
		}
	})

	m.Spawn("receiver", 1, ep.ReceiverAS, func(c *sim.Core) {
		// Prime both sets and calibrate the clean probe time per set.
		clean := make([]int64, sets)
		for s := 0; s < sets; s++ {
			for w := 0; w < walks+1; w++ {
				for _, va := range rev[s] {
					c.Load(va)
				}
			}
			var samples []int64
			for k := 0; k < 6; k++ {
				var sum int64
				for _, va := range rev[s] {
					sum += c.TimedLoad(va)
				}
				samples = append(samples, sum)
			}
			// Threshold: clean mean plus half the DRAM/LLC gap.
			lat := m.H.Config().Lat
			clean[s] = int64(stats.Mean(samples)) + (lat.Mem-lat.LLCHit)/2
		}
		for it := 0; it*sets < n; it++ {
			c.WaitUntil(cfg.Start + int64(it)*interval + cfg.ReceiverOffset)
			for s := 0; s < sets; s++ {
				i := it*sets + s
				if i >= n {
					break
				}
				// Probe: timed walk.
				probeAt := c.Now()
				var sum int64
				for _, va := range rev[s] {
					sum += c.TimedLoad(va)
				}
				received[i] = sum > clean[s]
				emitRxBit(c, probeAt, i, received[i], sum, interval, clean[s])
				// Re-prime: untimed refresh walks.
				for w := 0; w < walks-1; w++ {
					for _, va := range rev[s] {
						c.Load(va)
					}
				}
			}
			c.Spin(cfg.ProtocolOverhead)
		}
	})

	spawnNoise(m, cfg.NoisePeriod, ep.NoiseAS, ep.NoiseLines)
	m.Run()
	return newReport(m, "Prime+Probe", interval, msg, received, sets), received
}
