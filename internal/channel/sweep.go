package channel

import (
	"fmt"
	"math/rand"

	"leakyway/internal/hier"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

// Runner is a channel implementation: NTP+NTP or Prime+Probe.
type Runner func(m *sim.Machine, cfg Config, msg []bool) (Report, []bool)

// SweepResult is one Figure 8 curve: reports across raw transmission rates
// (one per interval), for a single channel on a single platform.
type SweepResult struct {
	Channel  string
	Platform string
	Points   []Report
}

// Peak returns the report with the highest channel capacity — the Table II
// number.
func (s SweepResult) Peak() Report {
	var best Report
	for _, p := range s.Points {
		if p.CapacityKBps > best.CapacityKBps {
			best = p
		}
	}
	return best
}

// Sweep measures a channel across transmission intervals, one machine per
// point with the same platform, seed and message, so points differ only in
// rate. bits is the message length per point.
//
// Each point's machine is built through the MachineSource its trial body
// receives from trials — the experiment engine passes its Context.Parallel
// — and a nil trials runs the points one after another through
// sim.RunBatch on an arena borrowed from the process free list. The result
// is byte-identical for any TrialFor, since no point depends on how its
// machine was constructed or scheduled.
//
// tf, when non-nil, returns the tracer attached to point i's machine (nil
// leaves the point untraced). The factory is called before the points fan
// out, so tracer registration order — and therefore the trace output — is
// independent of the schedule.
func Sweep(platform hier.Config, run Runner, base Config, intervals []int64, bits int, seed int64, trials sim.TrialFor, tf func(i int) *trace.Tracer) SweepResult {
	if bits <= 0 {
		panic(fmt.Errorf("channel: sweep bit count must be positive, got %d", bits))
	}
	if len(intervals) == 0 {
		panic(fmt.Errorf("channel: sweep needs at least one interval"))
	}
	tracers := make([]*trace.Tracer, len(intervals))
	if tf != nil {
		for i := range intervals {
			tracers[i] = tf(i)
		}
	}
	msg := RandomMessage(bits, seed)
	points := make([]Report, len(intervals))
	body := func(i int, src sim.MachineSource) {
		m := src.NewMachine(platform, 1<<30, seed)
		m.SetTracer(tracers[i])
		cfg := base
		cfg.Interval = intervals[i]
		points[i], _ = run(m, cfg, msg)
	}
	if trials == nil {
		sim.RunBatch(len(intervals), 1, nil, body)
	} else {
		trials(len(intervals), body)
	}
	var out SweepResult
	out.Points = points
	if len(points) > 0 {
		out.Channel = points[0].Channel
		out.Platform = points[0].Platform
	}
	return out
}

// DefaultIntervals returns the interval grid used for the Figure 8 sweeps:
// dense around the capacity knee, sparser in the tails.
func DefaultIntervals() []int64 {
	return []int64{
		600, 800, 1000, 1100, 1200, 1300, 1400, 1500, 1700,
		2000, 2400, 3000, 4000, 5000, 7000, 10000,
	}
}

// RandomMessage generates a deterministic pseudo-random bit string.
func RandomMessage(n int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed ^ 0x6d657373))
	msg := make([]bool, n)
	for i := range msg {
		msg[i] = rng.Intn(2) == 1
	}
	return msg
}

// BytesToBits expands data MSB-first, the encoding the examples use.
func BytesToBits(data []byte) []bool {
	out := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, b>>uint(i)&1 == 1)
		}
	}
	return out
}

// BitsToBytes packs bits MSB-first; trailing partial bytes are dropped.
func BitsToBytes(bits []bool) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b <<= 1
			if bits[i+j] {
				b |= 1
			}
		}
		out = append(out, b)
	}
	return out
}

// EncodeRepetition triples every bit — the simple reliability encoding the
// paper alludes to for noisy conditions.
func EncodeRepetition(bits []bool, k int) []bool {
	if k <= 1 {
		return append([]bool(nil), bits...)
	}
	out := make([]bool, 0, len(bits)*k)
	for _, b := range bits {
		for i := 0; i < k; i++ {
			out = append(out, b)
		}
	}
	return out
}

// DecodeRepetition majority-votes k-bit groups.
func DecodeRepetition(bits []bool, k int) []bool {
	if k <= 1 {
		return append([]bool(nil), bits...)
	}
	out := make([]bool, 0, len(bits)/k)
	for i := 0; i+k <= len(bits); i += k {
		ones := 0
		for j := 0; j < k; j++ {
			if bits[i+j] {
				ones++
			}
		}
		out = append(out, ones*2 > k)
	}
	return out
}
