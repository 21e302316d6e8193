package hier

import (
	"math/bits"
	"math/rand"
)

// LatencyConfig is the cycle-cost model. Base values are calibrated so that
// *timed* operations (base + timer overhead + jitter) land in the ranges the
// paper reports on real silicon: an L1-hit load times at ≈70 cycles, an
// LLC hit at 90–100, and a DRAM access at more than 200 (Figure 5).
type LatencyConfig struct {
	L1Hit  int64 // load/prefetch serviced by the local L1
	L2Hit  int64 // serviced by the local L2
	LLCHit int64 // serviced by the shared LLC
	Mem    int64 // serviced by DRAM

	// Jitter amplitudes (± uniform) for each tier.
	L1Jit, L2Jit, LLCJit, MemJit int64

	// CLFLUSH costs, split by whether the line was cached (flushing a
	// cached — especially dirty — line is slower, the effect Flush+Flush
	// keys on).
	FlushPresent int64
	FlushDirty   int64
	FlushAbsent  int64
	FlushJit     int64

	// CohTransfer is the extra cost of a load serviced by cache-to-cache
	// forwarding from another core's Modified copy.
	CohTransfer int64
	// CohInval is the cost of invalidating remote Shared copies on a
	// store upgrade.
	CohInval int64

	// PTWalkBase and PTWalkStep model the page-table walk a prefetch of
	// an unmapped (e.g. kernel) address performs: total walk time is
	// PTWalkBase + resolvedLevels*PTWalkStep. The dependence on how deep
	// the translation resolves is the KASLR-breaking prefetch side
	// channel of the paper's Section VI-C related work.
	PTWalkBase int64
	PTWalkStep int64

	// Fence is the cost of LFENCE-style serialization.
	Fence int64

	// TimerOverhead is the fixed cost of an RDTSC-bracketed measurement;
	// TimerJit its noise. Timed ops return base+overhead+jitter.
	TimerOverhead int64
	TimerJit      int64
}

// DefaultLatency returns the Skylake-flavoured calibration used by most
// tests: timed L1 hit ≈ 69, timed LLC hit ≈ 95, timed DRAM ≈ 225.
func DefaultLatency() LatencyConfig {
	return LatencyConfig{
		L1Hit: 4, L2Hit: 12, LLCHit: 30, Mem: 160,
		L1Jit: 1, L2Jit: 2, LLCJit: 4, MemJit: 15,
		FlushPresent: 110, FlushDirty: 140, FlushAbsent: 80, FlushJit: 8,
		CohTransfer:   28,
		CohInval:      22,
		PTWalkBase:    40,
		PTWalkStep:    26,
		Fence:         10,
		TimerOverhead: 65, TimerJit: 3,
	}
}

// Jitter draws the uniform noise of one jittered tier: a value in
// [-jit, +jit], exactly as rng.Int63n(2*jit+1) - jit would, consuming the
// same Int63 draws. Int63n rejects draws above a bound and reduces the rest
// with a 64-bit division; Jitter precomputes the bound and replaces the
// division by Lemire's 128-bit fastmod (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", 2019), which is exact for every 64-bit
// dividend and divisor.
type Jitter struct {
	jit int64
	n   uint64 // 2*jit+1; 0 when the tier has no jitter
	max int64  // largest accepted draw, as in Int63n
	// mHi:mLo is the fastmod multiplier ceil(2^128 / n).
	mHi, mLo uint64
}

// NewJitter precomputes the sampler for amplitude jit. A jit of zero or
// less yields a sampler that draws nothing and returns 0; jit must be
// below 2^62 so that 2*jit+1 fits in an int64.
func NewJitter(jit int64) Jitter {
	if jit <= 0 {
		return Jitter{}
	}
	n := uint64(2*jit + 1)
	// ceil(2^128/n) = floor((2^128-1)/n) + 1, computed as two 64-bit
	// long divisions of 2^128-1 = (2^64-1)*2^64 + (2^64-1).
	hi, r := bits.Div64(0, ^uint64(0), n)
	lo, _ := bits.Div64(r, ^uint64(0), n)
	lo, carry := bits.Add64(lo, 1, 0)
	return Jitter{
		jit: jit,
		n:   n,
		max: int64((1<<63 - 1) - (1<<63)%n),
		mHi: hi + carry,
		mLo: lo,
	}
}

// Draw returns the next jitter value from rng. It is small enough to
// inline, so a jitter-free tier costs no call.
func (j *Jitter) Draw(rng *rand.Rand) int64 {
	if j.n == 0 {
		return 0
	}
	return j.draw(rng)
}

// draw is Draw for a jittered tier.
func (j *Jitter) draw(rng *rand.Rand) int64 {
	v := rng.Int63()
	for v > j.max {
		v = rng.Int63()
	}
	return int64(j.mod(uint64(v))) - j.jit
}

// mod returns v % n: the low 128 bits of M*v, times n, shifted down 128.
func (j *Jitter) mod(v uint64) uint64 {
	h, low := bits.Mul64(j.mLo, v)
	high := h + j.mHi*v
	carryIn, _ := bits.Mul64(low, j.n)
	top, mid := bits.Mul64(high, j.n)
	_, carry := bits.Add64(mid, carryIn, 0)
	return top + carry
}

// jitters holds one precomputed Jitter per jittered tier of a
// LatencyConfig.
type jitters struct {
	l1, l2, llc, mem, flush, timer Jitter
}

func newJitters(l LatencyConfig) jitters {
	return jitters{
		l1:    NewJitter(l.L1Jit),
		l2:    NewJitter(l.L2Jit),
		llc:   NewJitter(l.LLCJit),
		mem:   NewJitter(l.MemJit),
		flush: NewJitter(l.FlushJit),
		timer: NewJitter(l.TimerJit),
	}
}
