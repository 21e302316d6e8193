package sim

import (
	"context"
	"math/rand"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

// This file is the batched lockstep trial kernel. A Monte-Carlo sweep runs
// many short independent machines that share one platform geometry and
// differ only in seed or channel parameters; building each machine from
// scratch (frame shuffle, cache arrays, per-set policy state) costs more
// than stepping it. RunBatch amortizes construction two ways:
//
//   - an Arena recycles hierarchies (hier.Pool) and shares immutable frame
//     shuffles (mem.FrameShuffle) across the trials of one worker, and
//   - a BatchMachine steps K trials in lockstep quanta, so the trials of
//     one worker march through their simulated time together and the
//     arena's working set stays hot instead of being rebuilt per trial.
//
// Scheduling is invisible to the simulation: exactly one trial executes at
// any moment, each machine's op order and RNG draw order are untouched, and
// the quantum handshake only decides *which* parked trial resumes next. A
// batched sweep is therefore byte-identical to a serial loop over fresh
// machines — the equivalence tests in batch_test.go (whose scalar reference
// is that loop) and the experiment goldens pin this.

// MachineSource constructs the machines a trial body runs. Trial bodies
// are written against a source so the kernel can recycle construction state
// between trials (RunBatch); tests drive the same bodies through a
// fresh-machine source as the scalar reference.
type MachineSource interface {
	// NewMachine is MustNewMachine, except that the source may recycle the
	// previous machine it returned to this caller: a trial body must not
	// touch an earlier machine after requesting a new one.
	NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine
}

// TrialFor runs body(0, src0), ..., body(n-1, srcN) in any order;
// implementations may run bodies concurrently, so a body must only write
// to per-index state. Each invocation gets a MachineSource valid for that
// body's duration.
type TrialFor func(n int, body func(i int, src MachineSource))

// shuffleKey identifies one frame shuffle: pool size plus the PhysMem seed.
type shuffleKey struct {
	bytes uint64
	seed  int64
}

// Arena owns the recyclable construction state for one worker: a hierarchy
// pool and a bounded cache of frame shuffles. It is not goroutine-safe —
// under RunBatch the lockstep protocol guarantees exactly one slot touches
// the arena at a time.
type Arena struct {
	pool     *hier.Pool
	shuffles map[shuffleKey]*mem.FrameShuffle
}

// maxShuffles bounds the shuffle cache; a sweep touches a handful of
// (size, seed) pairs, so overflow means the workload changed and the cache
// is simply restarted.
const maxShuffles = 32

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{pool: hier.NewPool(), shuffles: map[shuffleKey]*mem.FrameShuffle{}}
}

// shuffle returns the cached frame shuffle for (bytes, seed), computing and
// caching it on first use.
func (ar *Arena) shuffle(bytes uint64, seed int64) *mem.FrameShuffle {
	k := shuffleKey{bytes, seed}
	if sh, ok := ar.shuffles[k]; ok {
		return sh
	}
	if len(ar.shuffles) >= maxShuffles {
		ar.shuffles = map[shuffleKey]*mem.FrameShuffle{}
	}
	sh := mem.NewFrameShuffle(bytes, seed)
	ar.shuffles[k] = sh
	return sh
}

// newMachine is MustNewMachine through the arena: the hierarchy comes from
// the pool and the frame shuffle from the cache. The result is
// indistinguishable from MustNewMachine(cfg, memBytes, seed).
func (ar *Arena) newMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	cfg.Seed = seed
	h, err := ar.pool.Get(cfg)
	if err != nil {
		panic(err)
	}
	return &Machine{
		H:         h,
		Phys:      mem.NewPhysMemFrom(ar.shuffle(memBytes, seed^0x9e3779b9)),
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		SyncSlack: 3,
	}
}

// release returns a machine's hierarchy to the arena for recycling. The
// machine must not be used afterwards.
func (ar *Arena) release(m *Machine) {
	if m != nil {
		ar.pool.Put(m.H)
	}
}

// Process-global arena free list. Experiment contexts are created freely
// (one per daemon job, one per benchmark iteration), so tying recycled
// hierarchies to a context would rebuild them constantly; a small global
// pool keeps the steady-state construction cost near zero while bounding
// retained memory to a few fleets' worth of hierarchies.
var arenaPool = make(chan *Arena, 8)

// AcquireArena returns a recycled arena, or a fresh one when none is idle.
func AcquireArena() *Arena {
	select {
	case ar := <-arenaPool:
		return ar
	default:
		return NewArena()
	}
}

// ReleaseArena returns an arena to the global free list; beyond the list's
// capacity the arena is dropped for the GC.
func ReleaseArena(ar *Arena) {
	if ar == nil {
		return
	}
	select {
	case arenaPool <- ar:
	default:
	}
}

// batchQuantum is how many cycles a trial advances per lockstep turn.
// Small enough that the fleet's machines stay within one quantum of each
// other (keeping the arena's recycled state hot), large enough that the
// per-quantum channel handshake is noise against thousands of memory ops.
const batchQuantum = 8192

// batchKill unwinds a slot goroutine when the batch aborts after another
// slot's panic or a cancellation; the slot loop recovers it.
type batchKill struct{}

// batchGrant is the scheduler's permission for one slot to run until its
// machine clock passes quantumEnd.
type batchGrant struct {
	abort      bool
	quantumEnd int64
}

// batchEvent is a slot's report back to the scheduler: either a yield at
// the given machine clock, or completion (with the recovered panic value
// when the slot died).
type batchEvent struct {
	slot     int
	done     bool
	clock    int64
	panicVal any
}

// BatchMachine steps K trial slots in lockstep: exactly one slot executes
// between a grant and its next event, and the scheduler always resumes the
// parked slot whose machine clock is furthest behind. Machines created
// through a slot's MachineSource yield inside Machine.Run whenever their
// clock crosses the granted quantum.
type BatchMachine struct {
	ctx    context.Context
	arena  *Arena
	grants []chan batchGrant
	events chan batchEvent
}

// slotSource is the per-slot MachineSource: machines are built through the
// shared arena and the previous machine's hierarchy is recycled on each
// NewMachine call.
type slotSource struct {
	b    *BatchMachine
	slot int
	cur  *Machine
}

func (ss *slotSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	ss.recycle()
	m := ss.b.arena.newMachine(cfg, memBytes, seed)
	m.batch = ss.b
	m.slot = ss.slot
	// A fresh machine's clock (0) is already past this, so it yields once
	// before its first op and enters the lockstep rotation.
	m.quantumEnd = -1
	ss.cur = m
	return m
}

func (ss *slotSource) recycle() {
	if ss.cur != nil {
		ss.b.arena.release(ss.cur)
		ss.cur = nil
	}
}

// yield parks the running slot: it reports the machine's clock, waits for
// the next grant, and returns the new quantum end. On an abort grant it
// tears the machine's agents down and unwinds the slot with batchKill.
func (b *BatchMachine) yield(m *Machine, clock int64) int64 {
	b.events <- batchEvent{slot: m.slot, clock: clock}
	g := <-b.grants[m.slot]
	if g.abort {
		m.killAll()
		m.agents = nil
		panic(batchKill{})
	}
	return g.quantumEnd
}

// slotLoop runs trials slot, slot+K, slot+2K, ... until they are done or
// the batch context is cancelled, and reports completion.
func (b *BatchMachine) slotLoop(slot, n, nslots int, body func(i int, src MachineSource)) {
	src := &slotSource{b: b, slot: slot}
	defer func() {
		r := recover()
		if _, isKill := r.(batchKill); isKill {
			r = nil
		}
		src.recycle() // the slot still holds the run grant here
		b.events <- batchEvent{slot: slot, done: true, panicVal: r}
	}()
	if g := <-b.grants[slot]; g.abort {
		return
	}
	for i := slot; i < n && b.ctx.Err() == nil; i += nslots {
		body(i, src)
	}
}

// RunBatch is RunBatchContext without cancellation.
func RunBatch(n, width int, arena *Arena, body func(i int, src MachineSource)) {
	RunBatchContext(context.Background(), n, width, arena, body)
}

// RunBatchContext executes body(0), ..., body(n-1) across up to width
// lockstep slots sharing arena (nil for a private one); a width below 2 is
// one slot running the trials serially. Bodies receive a recycling
// MachineSource; the simulation output of every trial is byte-identical to
// a fresh MustNewMachine per trial, for any width.
//
// The fleet is torn down early — every slot's machine and agents included —
// in two cases. If a body panics, the first panic value is re-raised on the
// caller's goroutine. If ctx is cancelled, no further trial starts and every
// running trial unwinds at its next quantum boundary; RunBatchContext then
// returns ctx.Err(). It returns ctx.Err() whenever ctx is done on return,
// so a nil error means every trial ran to completion.
func RunBatchContext(ctx context.Context, n, width int, arena *Arena, body func(i int, src MachineSource)) error {
	if n <= 0 {
		return ctx.Err()
	}
	width = max(min(width, n), 1)
	if arena == nil {
		arena = NewArena()
	}

	b := &BatchMachine{
		ctx:    ctx,
		arena:  arena,
		grants: make([]chan batchGrant, width),
		events: make(chan batchEvent, width),
	}
	for s := range b.grants {
		b.grants[s] = make(chan batchGrant)
	}
	for s := 0; s < width; s++ {
		go b.slotLoop(s, n, width, body)
	}

	// The scheduler: every live slot is parked except the one holding the
	// current grant. Fresh slots park at clock -1 so they are admitted
	// before any mid-flight trial. Every grant is a cancellation
	// checkpoint: once ctx is done, grants turn into aborts.
	clock := make([]int64, width)
	done := make([]bool, width)
	for s := range clock {
		clock[s] = -1
	}
	live := width
	running := false
	var firstPanic any
	aborting := false
	for live > 0 {
		if !running {
			aborting = aborting || ctx.Err() != nil
			pick := -1
			for s := 0; s < width; s++ {
				if !done[s] && (pick < 0 || clock[s] < clock[pick]) {
					pick = s
				}
			}
			b.grants[pick] <- batchGrant{abort: aborting, quantumEnd: clock[pick] + batchQuantum}
			running = true
		}
		ev := <-b.events
		running = false
		if ev.done {
			done[ev.slot] = true
			live--
			if ev.panicVal != nil {
				if firstPanic == nil {
					firstPanic = ev.panicVal
				}
				aborting = true
			}
		} else {
			clock[ev.slot] = ev.clock
		}
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
	return ctx.Err()
}
