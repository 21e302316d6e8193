package channel

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

// bit01 renders a decoded bit for trace events.
func bit01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// emitTxBit and emitRxBit are the channel-layer slot events the
// diagnostics report keys on: tx-bit marks what the sender encoded in a
// slot; rx-bit carries the receiver's measured latency, the slot length
// and the decision threshold.
func emitTxBit(c *sim.Core, slot int, bit bool) {
	tr := c.Tracer()
	if !tr.On(trace.PkgChannel) {
		return
	}
	e := trace.E("channel", "tx-bit", c.Now())
	e.Agent, e.Core = c.AgentName(), c.ID
	e.Slot, e.Bit = slot, bit01(bit)
	tr.Emit(e)
}

func emitRxBit(c *sim.Core, at int64, slot int, bit bool, lat, slotLen, threshold int64) {
	tr := c.Tracer()
	if !tr.On(trace.PkgChannel) {
		return
	}
	e := trace.E("channel", "rx-bit", at)
	e.Agent, e.Core = c.AgentName(), c.ID
	e.Slot, e.Bit = slot, bit01(bit)
	e.Lat, e.Dur, e.Val = lat, slotLen, threshold
	tr.Emit(e)
}

// RunNTPNTP transmits msg over the NTP+NTP channel (Algorithm 1) and
// returns the report plus the bits the receiver decoded.
//
// Schedule (Figure 7): with S sets, the sender transmits bit i on set i%S at
// iteration i; the receiver decodes bit i one iteration later (same
// iteration for S=1, with an in-iteration spacing that must cover the
// sender's DRAM fill — the in-flight limitation of Section IV-B2).
//
// Cores: sender on 0, receiver on 1, noise (if any) on 2.
func RunNTPNTP(m *sim.Machine, cfg Config, msg []bool) (Report, []bool) {
	ep, err := Setup(m, max(cfg.Sets, 1))
	if err != nil {
		panic(err)
	}
	return RunNTPNTPOn(m, cfg, ep, msg)
}

// RunNTPNTPOn is RunNTPNTP over pre-staged endpoints: callers that need to
// interpose between setup and transmission (fault injection, custom noise)
// stage the endpoints themselves and hand them in. The set count is taken
// from the endpoints.
func RunNTPNTPOn(m *sim.Machine, cfg Config, ep *Endpoints, msg []bool) (Report, []bool) {
	return runNTPNTP(m, cfg, ep, 1, "NTP+NTP", msg)
}

// RunNTPNTPLanes is the multi-lane extension of the NTP+NTP channel: L
// independent two-set pipelines (2L target sets in total) each carry one bit
// per iteration, so L bits move per interval. The paper stops at one lane
// (two sets); extra lanes trade per-iteration work for aggregate bandwidth
// until the receiver's probing saturates the interval.
func RunNTPNTPLanes(m *sim.Machine, cfg Config, lanes int, msg []bool) (Report, []bool) {
	lanes = max(lanes, 1)
	ep, err := Setup(m, 2*lanes)
	if err != nil {
		panic(err)
	}
	return runNTPNTP(m, cfg, ep, lanes, fmt.Sprintf("NTP+NTP x%d", lanes), msg)
}

// runNTPNTP is the one NTP+NTP schedule: lanes pipelines of S =
// len(ep.DS)/lanes sets each. Bit i*lanes+l is sent at iteration i on set
// l*S + i%S and read one iteration later when S > 1.
func runNTPNTP(m *sim.Machine, cfg Config, ep *Endpoints, lanes int, name string, msg []bool) (Report, []bool) {
	mustValidRun(cfg, false, msg)
	sets := len(ep.DS) / lanes
	setFor := func(i, lane int) int { return lane*sets + i%sets }
	interval := cfg.Interval
	n := len(msg)
	iters := (n + lanes - 1) / lanes
	received := make([]bool, n)

	// The receiver's decode threshold is calibrated before the run.
	var th core.Thresholds

	m.Spawn("sender", 0, ep.SenderAS, func(c *sim.Core) {
		for i := 0; i < iters; i++ {
			c.WaitUntil(cfg.Start + int64(i)*interval + cfg.SenderOffset)
			for l := 0; l < lanes && i*lanes+l < n; l++ {
				bit := i*lanes + l
				emitTxBit(c, bit, msg[bit])
				if msg[bit] {
					c.PrefetchNTA(ep.DS[setFor(i, l)])
				}
			}
			c.Spin(cfg.ProtocolOverhead)
		}
	})

	m.Spawn("receiver", 1, ep.ReceiverAS, func(c *sim.Core) {
		th = core.Calibrate(c, 48)
		// Prepare the channel before the epoch: fill each target set so
		// it has no empty ways (footnote 4), then install every dr as
		// its set's eviction candidate (which also leaves dr in the
		// receiver's L1).
		for _, fill := range ep.Filler {
			for _, va := range fill {
				c.Load(va)
			}
		}
		for _, dr := range ep.DR {
			c.PrefetchNTA(dr)
		}
		// Pipelined decode: bit i is read at iteration i+delay
		// (Figure 7: with two sets the receiver always detects the bit
		// sent one iteration earlier).
		delay := int64(1)
		if sets == 1 {
			delay = 0
		}
		for i := 0; i < iters; i++ {
			c.WaitUntil(cfg.Start + (int64(i)+delay)*interval + cfg.ReceiverOffset)
			for l := 0; l < lanes && i*lanes+l < n; l++ {
				bit := i*lanes + l
				probeAt := c.Now()
				t := c.TimedPrefetchNTA(ep.DR[setFor(i, l)])
				received[bit] = th.IsMiss(t)
				emitRxBit(c, probeAt, bit, received[bit], t, interval, th.MissThreshold)
			}
			c.Spin(cfg.ProtocolOverhead)
		}
	})

	spawnNoise(m, cfg.NoisePeriod, ep.NoiseAS, ep.NoiseLines)
	m.Run()
	return newReport(m, name, interval, msg, received, float64(lanes)), received
}
