package sim

import (
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/trace"
)

// Core is an agent's handle onto its pinned physical core. Every method
// that touches memory or time is a scheduling point: the machine interleaves
// agents between operations, in global clock order.
//
// Methods translate virtual addresses through the agent's address space and
// panic on page faults, which always indicate harness bugs.
type Core struct {
	m     *Machine
	agent *Agent
	// ID is the physical core index.
	ID int
	// AS is the agent's address space.
	AS  *mem.AddressSpace
	now int64
	// runLimit is the batching bound set by the machine at resume: the
	// agent keeps executing without yielding until its clock exceeds it
	// (see Machine.batchLimit).
	runLimit int64
}

// Now returns the core's current cycle as the agent perceives it: the
// global clock plus any accrued drift skew (zero unless a clock-drift
// fault is active — see fault.go).
func (c *Core) Now() int64 { return c.now + c.agent.skew }

// AgentName returns the owning agent's name (for emit sites above sim).
func (c *Core) AgentName() string { return c.agent.Name }

// Tracer returns the machine's event sink (nil when untraced).
func (c *Core) Tracer() *trace.Tracer { return c.m.tr }

// emitTimed records a timed measurement as a span starting at the cycle
// the measured operation began.
func (c *Core) emitTimed(kind string, start, t int64) {
	if !c.m.tr.On(trace.PkgSim) {
		return
	}
	e := trace.E("sim", kind, start)
	e.Agent, e.Core = c.agent.Name, c.ID
	e.Lat, e.Dur = t, t
	c.m.tr.Emit(e)
}

// step advances the local clock, applies any scheduled disturbances that
// have come due, and hands control back to the machine only once the clock
// passes the batching bound — every op remains a scheduling point
// semantically, but the coroutine switch is skipped while this agent would
// be re-picked anyway.
func (c *Core) step(cost int64) {
	c.now += cost
	if c.agent.faults != nil {
		c.accrueDrift(cost)
		c.applyFaults()
	}
	if c.now > c.runLimit {
		c.agent.park()
	}
}

// Load performs a demand load and returns the hierarchy result.
func (c *Core) Load(va mem.VAddr) hier.Result {
	res := c.m.H.Load(c.ID, c.AS.MustTranslate(va), c.now)
	c.step(res.Latency)
	return res
}

// Store performs a demand store.
func (c *Core) Store(va mem.VAddr) hier.Result {
	res := c.m.H.Store(c.ID, c.AS.MustTranslate(va), c.now)
	c.step(res.Latency)
	return res
}

// PrefetchNTA executes PREFETCHNTA on the line holding va.
func (c *Core) PrefetchNTA(va mem.VAddr) hier.Result {
	res := c.m.H.PrefetchNTA(c.ID, c.AS.MustTranslate(va), c.now)
	c.step(res.Latency)
	return res
}

// PrefetchT0 executes PREFETCHT0 on the line holding va.
func (c *Core) PrefetchT0(va mem.VAddr) hier.Result {
	res := c.m.H.PrefetchT0(c.ID, c.AS.MustTranslate(va), c.now)
	c.step(res.Latency)
	return res
}

// Flush executes CLFLUSH on the line holding va.
func (c *Core) Flush(va mem.VAddr) hier.Result {
	res := c.m.H.Flush(c.AS.MustTranslate(va), c.now)
	c.step(res.Latency)
	return res
}

// Fence executes an LFENCE, serializing at a small cost.
func (c *Core) Fence() {
	c.step(c.m.H.FenceLatency())
}

// timed wraps an operation latency in the RDTSC measurement model: the
// returned (and charged) cycles are latency + timer overhead + jitter,
// matching how the paper's numbers include measurement cost.
func (c *Core) timed(lat int64) int64 {
	t := lat + c.m.H.Lat().TimerOverhead + c.m.H.TimerJitter().Draw(c.m.rng)
	t += c.spikeJitter()
	return t
}

// TimedLoad loads va and returns the measured cycles (RDTSC-bracketed).
func (c *Core) TimedLoad(va mem.VAddr) int64 {
	res := c.m.H.Load(c.ID, c.AS.MustTranslate(va), c.now)
	t := c.timed(res.Latency)
	c.emitTimed("timed-load", c.now, t)
	c.step(t)
	return t
}

// TimedPrefetchNTA prefetches va and returns the measured cycles — the
// receiver primitive of NTP+NTP (Property #3 makes the timing meaningful).
func (c *Core) TimedPrefetchNTA(va mem.VAddr) int64 {
	res := c.m.H.PrefetchNTA(c.ID, c.AS.MustTranslate(va), c.now)
	t := c.timed(res.Latency)
	c.emitTimed("timed-nta", c.now, t)
	c.step(t)
	return t
}

// TimedFlush flushes va and returns the measured cycles (Flush+Flush-style).
func (c *Core) TimedFlush(va mem.VAddr) int64 {
	res := c.m.H.Flush(c.AS.MustTranslate(va), c.now)
	t := c.timed(res.Latency)
	c.emitTimed("timed-flush", c.now, t)
	c.step(t)
	return t
}

// TimedPrefetchProbe issues a software prefetch at an arbitrary virtual
// address — mapped or not — and returns the measured cycles. Prefetches
// never fault; for an address without a full translation the hardware walks
// the page tables until an absent entry and gives up, so the measured time
// reveals how deep the translation resolves (in the agent's own space or
// the shared kernel space). This is the primitive behind the
// prefetch-timing KASLR breaks the paper's Section VI-C surveys. The probe
// itself leaves no cache state behind in this model.
func (c *Core) TimedPrefetchProbe(va mem.VAddr) int64 {
	depth := c.AS.TranslationLevels(va)
	if c.m.Kernel != nil {
		if d := c.m.Kernel.TranslationLevels(va); d > depth {
			depth = d
		}
	}
	lat := c.m.H.Lat()
	t := c.timed(lat.PTWalkBase + int64(depth)*lat.PTWalkStep)
	c.emitTimed("timed-probe", c.now, t)
	c.step(t)
	return t
}

// Spin burns the given number of cycles without touching memory.
func (c *Core) Spin(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	c.step(cycles)
}

// WaitUntil spins until the core's TSC reaches t (plus sync slack jitter),
// the synchronization primitive the channel protocols use. The target is
// in the agent's perceived clock: under a drift fault a fast clock wakes
// early in global time, exactly as a real skewed TSC would. If t is
// already past, it is a small-cost no-op.
func (c *Core) WaitUntil(t int64) {
	target := t - c.agent.skew
	if c.m.SyncSlack > 0 {
		target += c.m.rng.Int63n(c.m.SyncSlack + 1)
	}
	if target < c.now {
		target = c.now
	}
	if waited := target - c.now; waited > 0 && c.m.tr.On(trace.PkgSim) {
		e := trace.E("sim", "wait", c.now)
		e.Agent, e.Core, e.Dur = c.agent.Name, c.ID, waited
		c.m.tr.Emit(e)
	}
	elapsed := target - c.now
	c.now = target
	if c.agent.faults != nil {
		c.accrueDrift(elapsed)
		c.applyFaults()
	}
	if c.now > c.runLimit {
		c.agent.park()
	}
}

// Alloc reserves size bytes in the agent's address space.
func (c *Core) Alloc(size uint64) mem.VAddr {
	va, err := c.AS.Alloc(size)
	if err != nil {
		panic(err)
	}
	return va
}
