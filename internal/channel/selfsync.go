package channel

import (
	"sort"

	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// Self-synchronizing NTP+NTP: framing parameters. Each frame is
//
//	pulse ×8   silence ×2   START pulse   guard   payload ×48   silence ×2
//
// (one slot each). The receiver re-locks its clock on every frame, so the
// residual error of the slot-length estimate never accumulates beyond one
// frame's payload.
const (
	ssPreamble = 8
	ssPayload  = 48
	ssFrame    = ssPreamble + 2 + 1 + 1 + ssPayload + 2
)

// RunNTPNTPSelfSync removes the shared-epoch assumption of the basic
// channel: the receiver does not know when the sender starts. The sender
// frames the message as above; the receiver probes its line continuously,
// estimates the slot length by regression over the preamble pulses and the
// START pulse, locks phase, decodes one frame, and re-locks for the next.
//
// Because the receiver's probe can collide with a pulse's in-flight fill
// (the Section IV-B2 hazard), a collision can leave the receiver's line dr
// demoted from the eviction-candidate position. The receiver re-primes
// after every detected miss: a filler walk restores full occupancy and
// evicts stray sender lines (whose private copies die by
// back-invalidation), and a final PREFETCHNTA reinstates dr as candidate.
//
// cfg.Interval is the slot length (≥2200 cycles on the default calibration,
// leaving room for the re-prime); cfg.Start is the *sender's* private start
// time — the receiver never reads it. The receiver must be listening before
// the sender's first frame.
func RunNTPNTPSelfSync(m *sim.Machine, cfg Config, msg []bool) (Report, []bool) {
	mustValidRun(cfg, true, msg)
	ep, err := Setup(m, 1)
	if err != nil {
		panic(err)
	}
	interval := cfg.Interval

	senderStart := cfg.Start
	if senderStart <= 0 {
		senderStart = 80_000
	}
	// An all-zero bootstrap frame precedes the payload: its START pulse
	// gives the receiver the long cross-frame baseline before any real
	// bit is decoded (the short within-frame baseline leaves too much
	// quantization error for a 48-bit payload). The last frame is
	// zero-padded to a whole payload.
	pad := ssPayload
	n := pad + len(msg)
	frames := (n + ssPayload - 1) / ssPayload
	padded := make([]bool, frames*ssPayload)
	copy(padded[pad:], msg)
	rawRecv := make([]bool, 0, n)

	m.Spawn("sender", 0, ep.SenderAS, func(c *sim.Core) {
		for f := 0; f < frames; f++ {
			txBurst(c, ep.DS[0], senderStart+int64(f)*ssFrame*interval, interval,
				cfg.ProtocolOverhead, padded[f*ssPayload:(f+1)*ssPayload])
		}
	})

	m.Spawn("receiver", 1, ep.ReceiverAS, func(c *sim.Core) {
		r := &listener{
			ln: LaneEndpoints{DR: ep.DR[0], Filler: ep.Filler[0]},
			th: core.Calibrate(c, 48),
		}
		r.reprime(c)

		probePeriod := interval / 8
		if probePeriod < 150 {
			probePeriod = 150
		}
		deadline := c.Now() + int64(frames+4)*ssFrame*interval + 600_000
		prevStart := int64(0)
		firstStart := int64(0)
		for f := 0; f < frames && c.Now() < deadline; f++ {
			// Phase 1: preamble pulses until silence. If the channel
			// has gone quiet for most of a frame, assume a stuck
			// sender line and recover with a hard re-prime.
			var misses []int64
			med := int64(0)
			lastRecover := c.Now()
			for c.Now() < deadline {
				if at, miss := r.probe(c); miss {
					misses = append(misses, at)
				}
				c.Spin(probePeriod)
				if len(misses) == 0 && c.Now()-lastRecover > (ssFrame/2)*interval {
					r.hardReprime(c)
					lastRecover = c.Now()
				}
				if len(misses) < 4 {
					continue
				}
				med = medianGap(misses)
				if med > 0 && c.Now()-misses[len(misses)-1] > med*17/10 {
					// Keep only the trailing run of consistently
					// spaced pulses: stragglers from the previous
					// frame's payload are separated from the real
					// preamble by a multi-slot gap.
					run := misses
					for i := len(misses) - 1; i > 0; i-- {
						if misses[i]-misses[i-1] > med*13/10 {
							run = misses[i:]
							break
						}
					}
					if len(run) >= 4 {
						misses = run
						med = medianGap(misses)
						break
					}
					misses = run // too short: keep waiting
				}
			}
			if len(misses) < 4 || med <= 0 {
				return // lock lost; remaining bits stay unreceived
			}
			// Phase 2: the START pulse.
			var start int64
			for c.Now() < deadline {
				if at, miss := r.probe(c); miss {
					start = at
					break
				}
				c.Spin(probePeriod)
			}
			if start == 0 {
				return
			}
			// Regression estimate: the span from the first observed
			// pulse to the START pulse covers a whole number of
			// slots, recovered by rounding with the median gap.
			est := med
			if span := start - misses[0]; span > 0 {
				slots := (span + med/2) / med
				if slots > 0 {
					est = span / slots
				}
			}
			// Across frames the START pulses are exactly ssFrame
			// slots apart: a much longer baseline that shrinks the
			// quantization error of the estimate ~6x. (The slot
			// count is known by construction — deriving it from the
			// short-baseline estimate would just re-import its
			// bias.)
			if prevStart > 0 {
				gap := start - prevStart
				if diff := gap - int64(ssFrame)*est; diff < 3*est && diff > -3*est {
					est = gap / ssFrame
				}
			}
			prevStart = start
			// The frame index comes from the START timestamp, not
			// the loop counter: frame boundaries are ssFrame slots
			// apart, so even if one lock was stolen by noise the
			// next frames land back on their true indices instead
			// of cascading a one-frame shift through the message.
			frameIdx := f
			if firstStart == 0 {
				firstStart = start
			} else if est > 0 {
				span := int64(ssFrame) * est
				if fi := int((start - firstStart + span/2) / span); fi >= 0 && fi < frames {
					frameIdx = fi
				}
			}
			// Phase 3: the frame's payload. Reads land early in the
			// slot (2/5 in, minus the probe-cadence quantization of
			// the START timestamp) so that a post-miss re-prime
			// finishes before the sender's next slot begins.
			phase := start - probePeriod/2
			for i := 0; i < ssPayload; i++ {
				bit := frameIdx*ssPayload + i
				if bit >= n {
					break
				}
				c.WaitUntil(phase + (2+int64(i))*est + est*2/5)
				_, miss := r.probe(c)
				for len(rawRecv) < bit {
					rawRecv = append(rawRecv, false) // lost slots
				}
				rawRecv = append(rawRecv, miss)
				c.Spin(cfg.ProtocolOverhead)
			}
		}
	})

	spawnNoise(m, cfg.NoisePeriod, ep.NoiseAS, ep.NoiseLines)
	m.Run()

	// Strip the bootstrap frame and align with the caller's message.
	received := make([]bool, len(msg))
	if len(rawRecv) > pad {
		copy(received, rawRecv[pad:])
	}
	return newReport(m, "NTP+NTP selfsync", interval, msg, received, float64(ssPayload)/float64(ssFrame)), received
}

// burstSlots is the slot count of a burst carrying n payload bits:
// preamble, 2 silence, START, guard, payload, 2 trailing silence.
func burstSlots(n int) int64 { return int64(ssPreamble + 4 + n + 2) }

// txBurst transmits one self-sync burst on ds, starting at the given cycle
// on the transmitter's own slot grid: the self-sync sender sends one per
// frame, the ARQ transport one per data frame or ACK. It returns after the
// last payload slot, with the cycle at which the trailing silence ends;
// callers that must not start another burst before then wait for it.
func txBurst(c *sim.Core, ds mem.VAddr, start, interval, overhead int64, bits []bool) int64 {
	slotAt := func(s int64) int64 { return start + s*interval }
	for p := int64(0); p < ssPreamble; p++ {
		c.WaitUntil(slotAt(p))
		c.PrefetchNTA(ds)
		c.Spin(overhead)
	}
	// Slots 8,9: silence. Slot 10: START. Slot 11: guard.
	c.WaitUntil(slotAt(ssPreamble + 2))
	c.PrefetchNTA(ds)
	c.Spin(overhead)
	for i, b := range bits {
		c.WaitUntil(slotAt(int64(ssPreamble + 4 + i)))
		if b {
			c.PrefetchNTA(ds)
		}
		c.Spin(overhead)
	}
	return slotAt(burstSlots(len(bits)))
}

// listener tracks the receive side of one lane: threshold, slot estimate,
// and the re-prime machinery shared by the self-sync receiver and both
// ARQ endpoints.
type listener struct {
	ln       LaneEndpoints
	th       core.Thresholds
	est      int64 // current slot-length estimate
	overhead int64
	// minEst/maxEst bound plausible slot estimates: a "preamble" whose
	// pulse spacing falls outside them is ambient noise masquerading as a
	// burst (e.g. a periodic co-runner), and the lock is rejected.
	minEst, maxEst int64
}

func (r *listener) reprime(c *sim.Core) {
	for _, va := range r.ln.Filler {
		c.Load(va)
	}
	c.PrefetchNTA(r.ln.DR)
}

// hardReprime recovers a wedged lane (a sender line left resident by an
// in-flight collision): flushing and reloading the whole filler set forces
// the stray age-3 line out, and the final PREFETCHNTA reinstates dr as the
// eviction candidate.
func (r *listener) hardReprime(c *sim.Core) {
	c.Flush(r.ln.DR)
	for _, va := range r.ln.Filler {
		c.Flush(va)
	}
	c.Fence()
	for _, va := range r.ln.Filler {
		c.Load(va)
	}
	c.PrefetchNTA(r.ln.DR)
}

func (r *listener) probe(c *sim.Core) (int64, bool) {
	t := c.TimedPrefetchNTA(r.ln.DR)
	at := c.Now()
	if r.th.IsMiss(t) {
		r.reprime(c)
		return at, true
	}
	return at, false
}

// medianGap returns the median spacing between consecutive timestamps —
// robust to a few noise insertions among the preamble pulses.
func medianGap(ts []int64) int64 {
	if len(ts) < 2 {
		return 0
	}
	gaps := make([]int64, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}
