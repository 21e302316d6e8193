package channel

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

// Reliable ARQ transport over the self-synchronizing NTP+NTP channel.
//
// The raw channel (Section IV) is fast but lossy: preemption, pollution
// bursts, clock drift and timer noise all corrupt bits. This transport
// layers a stop-and-wait ARQ on top of two set-disjoint self-sync lanes —
// a forward lane carrying CRC-8-checksummed data frames and a reverse lane
// carrying ACK/NACK bursts — and recovers a byte-exact message:
//
//   - every frame carries a 4-bit sequence number and a CRC-8/AUTOSAR
//     checksum (HD=4: any ≤3-bit body corruption is detected);
//   - the sender retransmits unacknowledged frames with bounded exponential
//     backoff, so a preempted receiver re-locks on a later copy;
//   - both parties adapt: on a frame-error-rate spike the sender degrades
//     raw → Hamming(7,4) coding and then stretches the slot length, while
//     the receiver re-runs threshold calibration and hard re-primes its
//     lane; the slot estimate itself is re-derived per burst from the
//     preamble, so unilateral slot changes need no side channel;
//   - duplicate frames (a delivered frame whose ACK was lost) are re-ACKed
//     and discarded by sequence number, never delivered twice.

// MinTransportInterval is the smallest slot length the ARQ transport (and
// the underlying self-sync receiver) accepts: below ~2200 cycles on the
// default calibration the post-miss re-prime walk no longer fits inside a
// slot, and the channel wedges rather than degrades.
const MinTransportInterval = 2200

// TransportConfig parameterizes one ARQ transfer.
type TransportConfig struct {
	// Channel supplies the physical-layer parameters: Interval is the
	// initial slot length (the transport may stretch it), Start the
	// sender's private epoch, ProtocolOverhead and NoisePeriod as in the
	// raw channel.
	Channel Config
	// MaxRetries bounds retransmissions per frame; the transfer aborts
	// (Delivered=false) when a frame exhausts them.
	MaxRetries int
	// FERWindow is the number of recent transmission attempts over which
	// the sender estimates the frame error rate.
	FERWindow int
	// FERThreshold is the frame-error rate that triggers a sender
	// recalibration step (coding degrade, then slot stretch).
	FERThreshold float64
}

// DefaultTransportConfig returns calibrated ARQ parameters for a platform.
func DefaultTransportConfig(platformName string, freqGHz float64) TransportConfig {
	cfg := DefaultConfig(platformName, freqGHz)
	cfg.Interval = 2500
	cfg.Sets = 1
	cfg.Start = 100_000
	return TransportConfig{
		Channel:      cfg,
		MaxRetries:   12,
		FERWindow:    6,
		FERThreshold: 0.34,
	}
}

// Validate rejects configurations the transport cannot run reliably.
func (t TransportConfig) Validate() error {
	if err := t.Channel.Validate(); err != nil {
		return err
	}
	if t.Channel.Interval < MinTransportInterval {
		return fmt.Errorf("channel: transport interval %d is below the calibrated re-prime minimum %d",
			t.Channel.Interval, MinTransportInterval)
	}
	if t.MaxRetries < 0 {
		return fmt.Errorf("channel: MaxRetries must be non-negative, got %d", t.MaxRetries)
	}
	if t.FERWindow < 1 {
		return fmt.Errorf("channel: FERWindow must be positive, got %d", t.FERWindow)
	}
	if t.FERThreshold <= 0 || t.FERThreshold > 1 {
		return fmt.Errorf("channel: FERThreshold must be in (0, 1], got %g", t.FERThreshold)
	}
	return nil
}

// TransportReport summarizes one ARQ transfer.
type TransportReport struct {
	Platform    string
	PayloadBits int
	Frames      int
	// Attempts counts data-burst transmissions; Retransmits the attempts
	// beyond the first per frame.
	Attempts    int
	Retransmits int
	AckTimeouts int
	NacksSeen   int
	// SenderRecals counts sender-side degradation steps (coding switch or
	// slot stretch); ReceiverRecals counts receiver threshold/lane
	// recalibrations.
	SenderRecals   int
	ReceiverRecals int
	FinalCoding    Coding
	FinalInterval  int64
	// Delivered is true when the receiver assembled the complete message.
	Delivered bool
	// ResidualErrors counts payload bits that differ after reassembly —
	// zero whenever Delivered, unless a CRC collision slipped through.
	ResidualErrors int
	Cycles         int64
	GoodputKBps    float64
}

// String renders the report in one line.
func (r TransportReport) String() string {
	status := "FAILED"
	if r.Delivered {
		status = "ok"
	}
	return fmt.Sprintf("ARQ %-22s %4d bits %3d frames %3d retx %2d recal coding=%s goodput=%6.2f KB/s residual=%d %s",
		r.Platform, r.PayloadBits, r.Frames, r.Retransmits, r.SenderRecals+r.ReceiverRecals,
		r.FinalCoding, r.GoodputKBps, r.ResidualErrors, status)
}

// LaneEndpoints is one staged target set (see stageSet), and one direction
// of a duplex link: the transmitter's signalling line DS, the listener's
// congruent line DR, and the listener's filler lines that keep the set
// full.
type LaneEndpoints struct {
	DS, DR mem.VAddr
	Filler []mem.VAddr
}

// DuplexEndpoints stages two set-disjoint lanes between an initiator (the
// data sender) and a responder (the data receiver, who acknowledges on the
// reverse lane).
type DuplexEndpoints struct {
	InitAS, RespAS *mem.AddressSpace
	NoiseAS        *mem.AddressSpace
	// Fwd carries data initiator→responder; Rev carries ACKs back.
	Fwd, Rev LaneEndpoints
	// NoiseLines are congruent with both lanes' target sets, for noise
	// daemons and fault pollution.
	NoiseLines []mem.VAddr
}

// SetupDuplex stages a duplex link. The two lanes use distinct line
// offsets within their anchor pages, so they map to different LLC sets and
// never collide with each other.
func SetupDuplex(m *sim.Machine) (*DuplexEndpoints, error) {
	dx := &DuplexEndpoints{
		InitAS:  m.NewSpace(),
		RespAS:  m.NewSpace(),
		NoiseAS: m.NewSpace(),
	}
	lane := func(listenAS, sendAS *mem.AddressSpace, lineOff int) (LaneEndpoints, error) {
		ln, noise, err := stageSet(m, listenAS, sendAS, dx.NoiseAS, lineOff)
		dx.NoiseLines = append(dx.NoiseLines, noise...)
		return ln, err
	}
	var err error
	if dx.Fwd, err = lane(dx.RespAS, dx.InitAS, 0); err != nil {
		return nil, err
	}
	if dx.Rev, err = lane(dx.InitAS, dx.RespAS, 1); err != nil {
		return nil, err
	}
	return dx, nil
}

// emitFrame records an ARQ protocol event on the emitting agent's channel
// track; slot carries the frame sequence index (-1 when n/a), val and note
// are kind-specific.
func emitFrame(c *sim.Core, kind string, slot int, val int64, note string) {
	tr := c.Tracer()
	if !tr.On(trace.PkgChannel) {
		return
	}
	e := trace.E("channel", kind, c.Now())
	e.Agent, e.Core = c.AgentName(), c.ID
	e.Slot, e.Val, e.Note = slot, val, note
	tr.Emit(e)
}

// listen locks onto one burst and reads its bits. lenFor maps the first
// frameModeBits received bits to the burst's total bit count (a fixed
// count for ACK bursts, mode-header-derived for data bursts). It returns
// ok=false when the deadline expires before a lock.
func (r *listener) listen(c *sim.Core, deadline int64, lenFor func(head []bool) int) ([]bool, bool) {
	r.reprime(c)
	probePeriod := max(r.est/8, 150)

	quietRecovers := 0
	for c.Now() < deadline {
		// Phase 1: the preamble — at least 4 consistently spaced pulses
		// followed by the inter-pulse silence. A long quiet spell means a
		// wedged lane: recover with a hard re-prime. If even repeated
		// hard re-primes surface no misses, the decode threshold itself
		// is suspect (e.g. it was calibrated while a timer-noise spike
		// inflated every reading, so real misses now classify as hits):
		// re-derive it from scratch.
		var misses []int64
		med := int64(0)
		lastEvent := c.Now()
		for c.Now() < deadline {
			if at, miss := r.probe(c); miss {
				misses = append(misses, at)
				lastEvent = at
				quietRecovers = 0
			}
			c.Spin(probePeriod)
			if c.Now()-lastEvent > (ssFrame/2)*r.est {
				r.hardReprime(c)
				// Pulses that old belong to no live burst; holding them
				// would skew the next preamble's median.
				misses = nil
				lastEvent = c.Now()
				// Six quiet spells (~half a megacycle at the default
				// slot) is far beyond any protocol turnaround gap, so
				// the threshold itself is implicated.
				if quietRecovers++; quietRecovers >= 6 {
					r.th = core.Calibrate(c, 16)
					r.hardReprime(c)
					quietRecovers = 0
				}
			}
			if len(misses) < 4 {
				continue
			}
			med = medianGap(misses)
			if med > 0 && c.Now()-misses[len(misses)-1] > med*17/10 {
				// Keep only the trailing run of consistently spaced
				// pulses: stragglers from a previous burst are separated
				// from the real preamble by a multi-slot gap.
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
				misses = run
			}
		}
		if len(misses) < 4 || med <= 0 {
			return nil, false // deadline expired hunting a preamble
		}
		// Plausibility: pulse spacing far from the negotiated slot length
		// is ambient noise, not a burst. Reject and keep hunting.
		if med < r.minEst || med > r.maxEst {
			misses = nil
			continue
		}

		// Phase 2: the START pulse, due ~3 slots after the last preamble
		// pulse. One arriving much later belongs to something else.
		lastPulse := misses[len(misses)-1]
		var start int64
		for c.Now() < deadline {
			if at, miss := r.probe(c); miss {
				start = at
				break
			}
			c.Spin(probePeriod)
		}
		if start == 0 {
			return nil, false
		}
		if gap := start - lastPulse; gap > 12*med {
			continue // stale lock: restart the hunt from this pulse
		}

		// Slot re-estimation: the span from the first observed pulse to
		// START covers a whole number of slots, recovered by rounding
		// with the median gap. This is how the receiver tracks a sender
		// that stretched its slot length — no side channel needed.
		est := med
		if span := start - misses[0]; span > 0 {
			if slots := (span + med/2) / med; slots > 0 {
				est = span / slots
			}
		}
		if est < r.minEst || est > r.maxEst {
			continue
		}
		r.est = est

		// Phase 3: payload slots, read mid-slot so a post-miss re-prime
		// finishes before the next slot begins. The burst length is
		// learned from the first frameModeBits bits.
		phase := start - probePeriod/2
		readBit := func(i int) bool {
			c.WaitUntil(phase + (2+int64(i))*est + est*2/5)
			_, miss := r.probe(c)
			c.Spin(r.overhead)
			return miss
		}
		bits := make([]bool, 0, frameModeBits)
		for i := 0; i < frameModeBits; i++ {
			bits = append(bits, readBit(i))
		}
		total := lenFor(bits)
		for i := frameModeBits; i < total; i++ {
			bits = append(bits, readBit(i))
		}
		return bits, true
	}
	return nil, false
}

// dataLenFor derives a data burst's length from its mode header; on a
// garbled header it assumes raw (the CRC rejects the burst anyway).
func dataLenFor(head []bool) int {
	mode, err := DecodeFrameMode(head)
	if err != nil {
		mode = CodingRaw
	}
	return FrameWireBits(mode)
}

// RunARQ transfers payload over a duplex link with the ARQ transport.
// Cores: sender 0, receiver 1, noise daemon (if configured) 2. It returns
// the report and the reassembled bits (truncated/padded to the payload
// length for comparison).
func RunARQ(m *sim.Machine, tcfg TransportConfig, payload []bool) (TransportReport, []bool, error) {
	dx, err := SetupDuplex(m)
	if err != nil {
		return TransportReport{}, nil, err
	}
	return RunARQOn(m, tcfg, dx, payload)
}

// RunARQOn is RunARQ over a pre-staged duplex link, for callers that
// interpose fault injection between setup and transfer.
func RunARQOn(m *sim.Machine, tcfg TransportConfig, dx *DuplexEndpoints, payload []bool) (TransportReport, []bool, error) {
	if err := tcfg.Validate(); err != nil {
		return TransportReport{}, nil, err
	}
	if len(payload) == 0 {
		return TransportReport{}, nil, fmt.Errorf("channel: transport payload must be non-empty")
	}
	cfg := tcfg.Channel
	nFrames := (len(payload) + FramePayloadBits - 1) / FramePayloadBits
	rep := TransportReport{
		Platform:    m.H.Config().Name,
		PayloadBits: len(payload),
		Frames:      nFrames,
	}
	chunk := func(fi int) []bool {
		lo := fi * FramePayloadBits
		return payload[lo:min(lo+FramePayloadBits, len(payload))]
	}

	start := cfg.Start
	if start <= 0 {
		start = 100_000
	}
	// Worst-case attempt: a Hamming data burst, the ACK turnaround, and
	// the maximum backoff, all at the fully stretched slot length.
	attemptSlots := burstSlots(FrameWireBits(CodingHamming)) + burstSlots(AckWireBits()) + 28 + 8*4
	deadline := start + int64(nFrames)*int64(tcfg.MaxRetries+1)*attemptSlots*2*cfg.Interval + 500_000

	var (
		recvBits []bool
		recvDone bool
		doneAt   int64
	)

	m.Spawn("sender", 0, dx.InitAS, func(c *sim.Core) {
		th := core.Calibrate(c, 48)
		ackRx := &listener{ln: dx.Rev, th: th, est: cfg.Interval, overhead: cfg.ProtocolOverhead}
		mode := CodingRaw
		interval := cfg.Interval
		recent, recentFail := 0, 0
		t := start
		for fi := 0; fi < nFrames; fi++ {
			fr := Frame{Seq: uint8(fi % SeqModulus), Last: fi == nFrames-1, Payload: chunk(fi)}
			acked := false
			for attempt := 0; attempt <= tcfg.MaxRetries; attempt++ {
				rep.Attempts++
				if attempt > 0 {
					rep.Retransmits++
				}
				wire := EncodeFrame(fr, mode)
				t = max(t, c.Now()+2*interval)
				emitFrame(c, "frame-tx", fi, int64(attempt), fmt.Sprintf("%v", mode))
				c.WaitUntil(txBurst(c, dx.Fwd.DS, t, interval, cfg.ProtocolOverhead, wire))
				// Listen for the ACK: the receiver turns around within a
				// few slots of the burst's end. The receiver acks at the
				// slot length it measured from this burst, so the
				// plausibility window tracks the current interval.
				ackRx.est = interval
				ackRx.minEst, ackRx.maxEst = interval*3/5, interval*8/5
				ackDeadline := min(c.Now()+(burstSlots(AckWireBits())+28)*interval, deadline)
				good := false
				nacked := false
				if bits, ok := ackRx.listen(c, ackDeadline, func([]bool) int { return AckWireBits() }); ok {
					// Any reverse-lane burst — a NACK, a stale ACK, even a
					// garbled one — proves the receiver has finished its
					// transmission and is listening again: retransmit
					// promptly. Only the awaited ACK advances.
					nacked = true
					if seq, ackOK, err := DecodeAck(bits); err == nil {
						if ackOK && seq == fr.Seq {
							good = true
							nacked = false
						} else if !ackOK {
							rep.NacksSeen++
						}
					}
				} else {
					rep.AckTimeouts++
					emitFrame(c, "ack-timeout", fi, 0, "")
				}
				switch {
				case good:
					emitFrame(c, "ack-ok", fi, 0, "")
				case nacked:
					emitFrame(c, "ack-nack", fi, 0, "")
				}
				// Adaptive recalibration: on an FER spike, degrade raw →
				// Hamming first, then stretch the slot length (the
				// receiver re-derives it from the next preamble).
				recent++
				if !good {
					recentFail++
				}
				if recent >= tcfg.FERWindow {
					if float64(recentFail)/float64(recent) >= tcfg.FERThreshold {
						rep.SenderRecals++
						if mode == CodingRaw {
							mode = CodingHamming
							emitFrame(c, "degrade-coding", fi, 0, fmt.Sprintf("%v", mode))
						} else if interval < cfg.Interval*2 {
							interval = min(interval*5/4, cfg.Interval*2)
							emitFrame(c, "degrade-slot", fi, interval, "")
						}
					}
					recent, recentFail = 0, 0
				}
				if good {
					acked = true
					break
				}
				if nacked {
					// A NACK means the receiver is already listening
					// again: retransmit promptly.
					t = c.Now() + 4*interval
				} else {
					// Timeout or garble: an ACK may still be in flight
					// and the receiver mid-transmission. Wait it out, plus
					// exponential backoff, before claiming the lane.
					backoff := int64(1) << min(attempt, 3)
					t = c.Now() + (burstSlots(AckWireBits())+6)*interval + backoff*4*interval
				}
				if c.Now() >= deadline {
					break
				}
			}
			rep.FinalCoding = mode
			rep.FinalInterval = interval
			if !acked || c.Now() >= deadline {
				return
			}
			t = c.Now() + 4*interval
		}
	})

	m.Spawn("receiver", 1, dx.RespAS, func(c *sim.Core) {
		th := core.Calibrate(c, 48)
		dataRx := &listener{
			ln: dx.Fwd, th: th, est: cfg.Interval, overhead: cfg.ProtocolOverhead,
			// The sender may stretch its slot up to 2x the negotiated
			// interval; anything beyond that spacing is noise.
			minEst: cfg.Interval * 3 / 5, maxEst: cfg.Interval * 11 / 4,
		}
		sendAck := func(seq uint8, ok bool) {
			c.WaitUntil(txBurst(c, dx.Rev.DS, c.Now()+2*dataRx.est, dataRx.est, cfg.ProtocolOverhead, EncodeAck(seq, ok)))
		}
		expected := 0
		consecFail := 0
		for c.Now() < deadline && !recvDone {
			bits, ok := dataRx.listen(c, deadline, dataLenFor)
			if !ok {
				return // global deadline: transfer failed
			}
			fr, _, err := DecodeFrame(bits)
			if err != nil {
				emitFrame(c, "frame-rx", -1, 0, "crc-error")
				// Receiver-side recalibration: repeated garble means the
				// threshold or the lane state has gone stale.
				consecFail++
				if consecFail >= 2 {
					dataRx.th = core.Calibrate(c, 32)
					dataRx.hardReprime(c)
					dataRx.est = cfg.Interval
					rep.ReceiverRecals++
					emitFrame(c, "recalibrate", -1, dataRx.th.MissThreshold, "")
					consecFail = 0
				}
				sendAck(uint8(expected%SeqModulus), false)
				continue
			}
			consecFail = 0
			if int(fr.Seq) == expected%SeqModulus {
				emitFrame(c, "frame-rx", int(fr.Seq), 0, "crc-ok")
				recvBits = append(recvBits, fr.Payload...)
				sendAck(fr.Seq, true)
				expected++
				if fr.Last {
					recvDone = true
					doneAt = c.Now()
				}
			} else {
				// A duplicate: its ACK was lost. Re-ACK, don't deliver.
				emitFrame(c, "frame-rx", int(fr.Seq), 0, "duplicate")
				sendAck(fr.Seq, true)
			}
		}
		// Linger briefly re-ACKing duplicates of the final frame, in case
		// the last ACK was lost and the sender is still retrying.
		for recvDone {
			tailDeadline := min(c.Now()+(burstSlots(FrameWireBits(CodingHamming))+40)*dataRx.est, deadline)
			bits, ok := dataRx.listen(c, tailDeadline, dataLenFor)
			if !ok {
				return
			}
			if fr, _, err := DecodeFrame(bits); err == nil {
				sendAck(fr.Seq, true)
			}
		}
	})

	spawnNoise(m, cfg.NoisePeriod, dx.NoiseAS, dx.NoiseLines)
	m.Run()

	// Reassemble: pad losses, truncate the final frame's padding.
	out := make([]bool, len(payload))
	for i := range out {
		if i < len(recvBits) {
			out[i] = recvBits[i]
		}
	}
	for i := range payload {
		if out[i] != payload[i] {
			rep.ResidualErrors++
		}
	}
	rep.Delivered = recvDone
	rep.Cycles = doneAt
	if !recvDone {
		rep.Cycles = deadline
	}
	if rep.Cycles > 0 {
		freqHz := m.H.Config().FreqGHz * 1e9
		seconds := float64(rep.Cycles) / freqHz
		rep.GoodputKBps = float64(len(payload)) / 8 / 1024 / seconds
	}
	return rep, out, nil
}
