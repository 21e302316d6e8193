// Package sim runs attacker/victim programs against a hier.Hierarchy on a
// deterministic global cycle clock. Each program (Agent) is an ordinary Go
// function making memory operations through its Core, run as a coroutine
// (iter.Pull): the Machine resumes exactly one agent at a time — always the
// one earliest on the clock — and the agent suspends itself at a scheduling
// point, so cross-core interleavings are reproducible bit-for-bit for a
// given seed, while the attack code reads like the paper's listings.
package sim

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/trace"
)

// killedError is panicked inside daemon agents when the machine shuts them
// down; Agent.run recovers it.
type killedError struct{}

func (killedError) Error() string { return "sim: agent killed" }

// Machine owns the hierarchy, the physical memory pool and the agents.
type Machine struct {
	H    *hier.Hierarchy
	Phys *mem.PhysMem

	// Kernel is the shared kernel address space: mapped into every
	// process's upper half, inaccessible but *translated* — exactly the
	// surface prefetch-timing KASLR attacks probe. Nil until
	// KernelSpace is first called.
	Kernel *mem.AddressSpace

	agents []*Agent
	rng    *rand.Rand
	// SyncSlack is the ± jitter applied by Core.WaitUntil, modelling the
	// granularity of a TSC spin-wait loop.
	SyncSlack int64

	// faults holds scheduled disturbances keyed by agent name; see
	// fault.go. FaultNotify, when set, observes each disturbance firing.
	faults      map[string]*agentFaults
	FaultNotify func(agent, kind string, at, detail, dur int64)

	// tr, when non-nil, receives sim events and is shared with the
	// hierarchy; see SetTracer.
	tr *trace.Tracer

	// ctx, set on machines built through RunBatchContext's arena, makes
	// Run stop a cancelled trial: it checks ctx once the clock passes
	// checkAt, then moves checkAt ctxCheckCycles ahead (batch.go). Nil on
	// every other machine, and the check never fires.
	ctx     context.Context
	checkAt int64
}

// SetTracer attaches an event sink to the machine and its hierarchy. The
// machine resumes exactly one agent at a time, so a single tracer per
// machine is race-free and its stream is a pure function of the seed.
func (m *Machine) SetTracer(t *trace.Tracer) {
	m.tr = t
	m.H.SetTracer(t)
}

// Tracer returns the attached event sink (nil when untraced).
func (m *Machine) Tracer() *trace.Tracer { return m.tr }

// NewMachine builds a machine for the given platform config with a physical
// memory pool of memBytes. All jitter, frame shuffling and sync slack derive
// from seed.
func NewMachine(cfg hier.Config, memBytes uint64, seed int64) (*Machine, error) {
	cfg.Seed = seed
	h, err := hier.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{
		H:         h,
		Phys:      mem.NewPhysMem(memBytes, seed^0x9e3779b9),
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		SyncSlack: 3,
	}, nil
}

// MustNewMachine is NewMachine for static configs; it panics on error.
func MustNewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	m, err := NewMachine(cfg, memBytes, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// NewSpace allocates a fresh address space over the machine's memory.
func (m *Machine) NewSpace() *mem.AddressSpace { return mem.NewAddressSpace(m.Phys) }

// KernelSpace returns the machine-wide kernel address space, creating it on
// first use.
func (m *Machine) KernelSpace() *mem.AddressSpace {
	if m.Kernel == nil {
		m.Kernel = mem.NewAddressSpace(m.Phys)
	}
	return m.Kernel
}

// Agent is one running program pinned to a core.
type Agent struct {
	Name   string
	Daemon bool

	core Core
	fn   func(*Core)
	// next resumes the agent's coroutine until its next scheduling point;
	// stop tears it down. yield, set once the body starts, is the
	// coroutine's side of the handoff.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool
	err   any    // recovered panic, if any (killedError excluded)
	stack []byte // agent stack captured with err

	// Fault state (fault.go): scheduled disturbances, perceived-clock skew
	// and its sub-cycle accumulator.
	faults   *agentFaults
	skew     int64
	driftAcc int64
}

// Spawn registers a program pinned to coreID using the given address space.
// The agent does not run until Run is called. A nil address space gets a
// fresh private one.
func (m *Machine) Spawn(name string, coreID int, as *mem.AddressSpace, fn func(*Core)) *Agent {
	return m.spawn(name, coreID, as, fn, false)
}

// SpawnDaemon registers a background program (victim, noise generator) that
// is allowed to loop forever; Run returns when all non-daemon agents finish
// and daemons are then killed.
func (m *Machine) SpawnDaemon(name string, coreID int, as *mem.AddressSpace, fn func(*Core)) *Agent {
	return m.spawn(name, coreID, as, fn, true)
}

func (m *Machine) spawn(name string, coreID int, as *mem.AddressSpace, fn func(*Core), daemon bool) *Agent {
	if coreID < 0 || coreID >= m.H.Config().Cores {
		panic(fmt.Sprintf("sim: Spawn(%q): core %d out of range", name, coreID))
	}
	if as == nil {
		as = m.NewSpace()
	}
	a := &Agent{Name: name, Daemon: daemon, fn: fn}
	a.core = Core{m: m, agent: a, ID: coreID, AS: as}
	a.faults = m.faults[name] // nil unless faults were staged for this name
	m.agents = append(m.agents, a)
	if m.tr.On(trace.PkgSim) {
		e := trace.E("sim", "spawn", 0)
		e.Agent, e.Core = name, coreID
		if daemon {
			e.Note = "daemon"
		}
		m.tr.Emit(e)
	}
	return a
}

// AgentError is the panic value Run raises when an agent panicked: it
// names the agent and carries the original panic value plus the agent's
// stack, so a test failure points at the faulty agent instead of a bare
// scheduler-internal value.
type AgentError struct {
	Agent string
	Value any
	Stack []byte
}

func (e *AgentError) Error() string {
	return fmt.Sprintf("sim: agent %q panicked: %v\n%s", e.Agent, e.Value, e.Stack)
}

// Run starts every spawned agent and interleaves them in clock order until
// all non-daemon agents complete; daemons are then torn down. It panics
// with an *AgentError (naming the agent and carrying the original panic
// value) if any agent panicked — including a daemon that panics during
// teardown — since that always indicates a harness bug. Agents spawned
// after Run returns belong to a fresh Run call.
func (m *Machine) Run() {
	for _, a := range m.agents {
		a.next, a.stop = iter.Pull(a.run)
	}
	for {
		a := m.nextRunnable()
		if a == nil {
			break
		}
		if m.ctx != nil && a.core.now >= m.checkAt {
			// Cancellation checkpoint. It never alters which agent runs
			// next or any RNG draw, so the output is unchanged.
			if m.ctx.Err() != nil {
				m.killAll()
				m.agents = nil
				panic(canceledTrial{})
			}
			m.checkAt = a.core.now + ctxCheckCycles
		}
		if m.tr != nil {
			// Stamp the agent context so hier events emitted during this
			// agent's turn land on its track.
			m.H.SetTraceAgent(a.Name, a.core.ID)
		}
		// Batched run-until-blocked: let the agent keep executing ops
		// without suspending for as long as it would remain
		// nextRunnable's pick anyway. This removes a coroutine switch
		// pair per memory operation while preserving the exact op
		// interleaving, RNG draw order and trace stream.
		a.core.runLimit = m.batchLimit(a)
		a.next()
		if a.done && a.err != nil {
			m.killAll() // ignore secondary teardown errors; the first panic wins
			m.agents = nil
			panic(&AgentError{Agent: a.Name, Value: a.err, Stack: a.stack})
		}
		if a.done && a.err == nil && m.tr.On(trace.PkgSim) {
			e := trace.E("sim", "done", a.core.now)
			e.Agent, e.Core = a.Name, a.core.ID
			m.tr.Emit(e)
		}
	}
	err := m.killAll()
	m.agents = nil
	if err != nil {
		panic(err)
	}
}

// nextRunnable picks the live non-done agent with the smallest core clock,
// but only while at least one non-daemon agent remains.
func (m *Machine) nextRunnable() *Agent {
	workLeft := false
	for _, a := range m.agents {
		if !a.Daemon && !a.done {
			workLeft = true
			break
		}
	}
	if !workLeft {
		return nil
	}
	var best *Agent
	for _, a := range m.agents {
		if a.done {
			continue
		}
		if best == nil || a.core.now < best.core.now {
			best = a
		}
	}
	return best
}

// batchLimit computes how far agent a's clock may advance while it is still
// the agent nextRunnable would pick. Ties go to the earliest-spawned agent,
// so a must stay strictly below every earlier live agent's clock and at or
// below every later one's. When no other agent is live the limit is
// unbounded and a runs to completion in a single resume.
func (m *Machine) batchLimit(a *Agent) int64 {
	limit := int64(math.MaxInt64)
	seenSelf := false
	for _, b := range m.agents {
		if b == a {
			seenSelf = true
			continue
		}
		if b.done {
			continue
		}
		bound := b.core.now
		if !seenSelf {
			// b spawned earlier: it wins clock ties, so a must stay
			// strictly below it.
			bound--
		}
		if bound < limit {
			limit = bound
		}
	}
	return limit
}

// killAll tears down any still-running agents (daemons). The expected
// teardown path is the killedError panic Agent.run swallows; a daemon that
// instead dies with a real panic (e.g. a deferred function blowing up while
// unwinding) is reported, not silently discarded. An agent that never got
// a turn is stopped before its body starts.
func (m *Machine) killAll() *AgentError {
	var firstErr *AgentError
	for _, a := range m.agents {
		if a.done {
			continue
		}
		a.stop()
		if a.err != nil && firstErr == nil {
			firstErr = &AgentError{Agent: a.Name, Value: a.err, Stack: a.stack}
		}
	}
	return firstErr
}

// run is the agent's coroutine body (the iter.Pull sequence): it runs the
// program and records how it ended. It yields nothing; each yield is a
// scheduling point.
func (a *Agent) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killedError); !isKill {
				a.err = r
				a.stack = debug.Stack()
			}
		}
		a.done = true
	}()
	a.yield = yield
	a.fn(&a.core)
}

// park hands control back to the machine until the agent's next turn. When
// the machine stops the agent instead, park unwinds it with killedError.
func (a *Agent) park() {
	if !a.yield(struct{}{}) {
		panic(killedError{})
	}
}

// AgentNames lists spawned agents in deterministic order (test helper).
func (m *Machine) AgentNames() []string {
	names := make([]string, len(m.agents))
	for i, a := range m.agents {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}
