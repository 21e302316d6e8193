// Package channel implements the paper's cross-core LLC covert channels:
// NTP+NTP (Section IV, Algorithm 1, Figures 6-8, Table II) and the
// Prime+Probe baseline it is compared against. Both run between two agents
// on different cores with no shared memory, synchronized on the cycle
// counter, with an optional background noise process.
package channel

import (
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

// Config parameterizes one transmission run.
type Config struct {
	// Interval is the cycle budget per transmission iteration; one bit
	// per interval for NTP+NTP, two (one per set) for Prime+Probe.
	Interval int64
	// Sets is the number of LLC sets used (1 or 2 for NTP+NTP, Figure 7;
	// Prime+Probe always uses 2, one bit each).
	Sets int
	// SenderOffset and ReceiverOffset place each party's operation inside
	// its iteration window. For a single-set NTP+NTP channel the receiver
	// offset must exceed the DRAM fill time, or the sender's in-flight
	// line defeats the conflict (the effect that motivates two sets).
	SenderOffset, ReceiverOffset int64
	// ProtocolOverhead models the fixed per-iteration cost of the real
	// implementation: TSC synchronization spin, loop and encode/decode
	// work. It bounds the sustainable rate exactly as on real hardware.
	ProtocolOverhead int64
	// Start is the cycle at which the transmission epoch begins; both
	// parties calibrate and prepare before it (the real channel likewise
	// agrees on a TSC epoch in its pre-defined protocol).
	Start int64
	// NoisePeriod, when positive, runs a background process that loads a
	// line congruent with a target set on average every NoisePeriod
	// cycles — the "other processes" reliability threat of Section IV-B3.
	NoisePeriod int64
	// PrimeWalks is how many refresh walks the Prime+Probe receiver does
	// after probing (the paper's reliable priming uses 2).
	PrimeWalks int
}

// DefaultConfig returns the calibrated per-platform protocol parameters.
// The overhead corresponds to ~330 ns of synchronization + bookkeeping per
// iteration (calibrated slightly higher on Kaby Lake), converted to cycles
// at the platform clock.
func DefaultConfig(platformName string, freqGHz float64) Config {
	overheadNs := 330.0
	if freqGHz > 4.0 {
		overheadNs = 375.0
	}
	return Config{
		Interval:         2000,
		Sets:             2,
		SenderOffset:     0,
		ReceiverOffset:   450,
		ProtocolOverhead: int64(overheadNs * freqGHz),
		Start:            60_000,
		NoisePeriod:      450_000,
		PrimeWalks:       2,
	}
}

// Report summarizes a transmission.
type Report struct {
	Channel      string
	Platform     string
	Bits         int
	Errors       int
	BER          float64
	Interval     int64
	RawRateKBps  float64
	CapacityKBps float64
}

// String renders the report in one line.
func (r Report) String() string {
	return fmt.Sprintf("%-12s %-22s interval=%5d cyc raw=%7.1f KB/s BER=%6.3f%% capacity=%7.1f KB/s",
		r.Channel, r.Platform, r.Interval, r.RawRateKBps, 100*r.BER, r.CapacityKBps)
}

// newReport counts the decode errors of a transmission of msg and fills
// the derived rate fields.
func newReport(m *sim.Machine, name string, interval int64, msg, received []bool, bitsPerInterval float64) Report {
	rep := Report{
		Channel:  name,
		Platform: m.H.Config().Name,
		Bits:     len(msg),
		Interval: interval,
	}
	for i := range msg {
		if received[i] != msg[i] {
			rep.Errors++
		}
	}
	finishReport(&rep, m.H.Config().FreqGHz, bitsPerInterval)
	return rep
}

// finishReport fills the derived fields.
func finishReport(r *Report, freqGHz float64, bitsPerInterval float64) {
	freqHz := freqGHz * 1e9
	rawBits := freqHz / float64(r.Interval) * bitsPerInterval
	r.RawRateKBps = rawBits / 8 / 1024
	if r.Bits > 0 {
		r.BER = float64(r.Errors) / float64(r.Bits)
	}
	r.CapacityKBps = stats.ChannelCapacity(r.RawRateKBps, r.BER)
}

// Endpoints are the staged addresses of a channel: the sender's and
// receiver's congruent lines for each target set, in their own address
// spaces. The eviction-set machinery that discovers congruence is exercised
// separately (package evset); channel setup uses the oracle, as the paper's
// threat model assumes ("able to construct eviction sets").
type Endpoints struct {
	SenderAS   *mem.AddressSpace
	ReceiverAS *mem.AddressSpace
	NoiseAS    *mem.AddressSpace
	// DS and DR are the sender/receiver signalling lines per set.
	DS, DR []mem.VAddr
	// Filler are receiver lines that pre-fill each target set so it has
	// no empty ways before the channel starts (footnote 4 of the paper:
	// a fill into an empty way causes no conflict at all).
	Filler [][]mem.VAddr
	// NoiseLines hold the noise process's lines congruent with the
	// target sets.
	NoiseLines []mem.VAddr
}

// Setup stages endpoints for a channel over the given number of LLC sets,
// one set at a time through stageSet.
func Setup(m *sim.Machine, sets int) (*Endpoints, error) {
	if sets <= 0 {
		return nil, fmt.Errorf("channel: sets must be positive, got %d", sets)
	}
	ep := &Endpoints{
		SenderAS:   m.NewSpace(),
		ReceiverAS: m.NewSpace(),
		NoiseAS:    m.NewSpace(),
	}
	for s := 0; s < sets; s++ {
		ln, noise, err := stageSet(m, ep.ReceiverAS, ep.SenderAS, ep.NoiseAS, s)
		if err != nil {
			return nil, err
		}
		ep.DS = append(ep.DS, ln.DS)
		ep.DR = append(ep.DR, ln.DR)
		ep.Filler = append(ep.Filler, ln.Filler)
		ep.NoiseLines = append(ep.NoiseLines, noise...)
	}
	return ep, nil
}

// stageSet stages one target set, the per-set step of Setup and of each
// SetupDuplex lane: a fresh anchor page in the listener's space whose line
// lineOff becomes DR (distinct offsets keep the sets distinct), the
// sender's congruent DS, LLCWays filler lines in the listener's space, and
// a rotating pool of 24 noise lines, so each noise event is a genuine fill
// that displaces the eviction candidate.
func stageSet(m *sim.Machine, listenAS, sendAS, noiseAS *mem.AddressSpace, lineOff int) (LaneEndpoints, []mem.VAddr, error) {
	var ln LaneEndpoints
	anchor, err := listenAS.Alloc(mem.PageSize)
	if err != nil {
		return ln, nil, err
	}
	ln.DR = anchor + mem.VAddr(lineOff*mem.LineSize)
	tline := listenAS.MustTranslate(ln.DR).Line()
	ds, err := core.CongruentWithLine(m, sendAS, tline, 1)
	if err != nil {
		return ln, nil, err
	}
	ln.DS = ds[0]
	if ln.Filler, err = core.CongruentLines(m, listenAS, ln.DR, m.H.Config().LLCWays); err != nil {
		return ln, nil, err
	}
	noise, err := core.CongruentWithLine(m, noiseAS, tline, 24)
	return ln, noise, err
}

// spawnNoise starts the background noise daemon on core 2 when period is
// positive: the "other processes" of Section IV-B3, loading the given
// lines (congruent with the target sets) in turn from their own address
// space. Every channel, the ARQ transport included, uses this one daemon.
func spawnNoise(m *sim.Machine, period int64, as *mem.AddressSpace, lines []mem.VAddr) {
	if period <= 0 {
		return
	}
	m.SpawnDaemon("noise", 2, as, func(c *sim.Core) {
		i := 0
		for {
			// Deterministic arrivals with irregular phase: vary the
			// gap ±25% with a fixed pattern.
			gap := period + period/4 - (int64(i%7) * period / 14)
			c.Spin(gap)
			c.Load(lines[i%len(lines)])
			i++
		}
	})
}
