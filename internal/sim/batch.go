package sim

import (
	"context"
	"iter"
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
// Each of the K slots is a coroutine (iter.Pull) driven by the caller's
// goroutine, just like the agents inside its machines. Scheduling is
// invisible to the simulation: exactly one trial executes at any moment,
// each machine's op order and RNG draw order are untouched, and the
// scheduler only decides *which* suspended trial resumes next. A batched
// sweep is therefore byte-identical to a serial loop over fresh machines —
// the equivalence tests in batch_test.go (whose scalar reference is that
// loop) and the experiment goldens pin this.

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
// under RunBatch the lockstep scheduler runs exactly one slot at a time.
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
// per-quantum coroutine switch is noise against thousands of memory ops.
const batchQuantum = 8192

// batchKill unwinds a slot when the batch aborts after another slot's panic
// or a cancellation; batchSlot.run recovers it.
type batchKill struct{}

// BatchMachine steps K trial slots in lockstep: each slot is a coroutine
// that runs its trials and suspends, yielding its machine clock, whenever
// that clock crosses the quantum the slot was resumed with. The scheduler
// always resumes the suspended slot whose clock is furthest behind.
type BatchMachine struct {
	ctx   context.Context
	arena *Arena
	n     int
	body  func(i int, src MachineSource)
	slots []batchSlot
}

// batchSlot is one lane of the fleet and its MachineSource: it runs trials
// index, index+K, index+2K, ... and builds their machines through the
// shared arena, recycling the previous machine's hierarchy on each
// NewMachine call.
type batchSlot struct {
	b     *BatchMachine
	index int
	cur   *Machine

	// next/stop drive the slot's coroutine (run); yield is its side of the
	// handoff. clock is the machine clock the slot last yielded (-1 before
	// its first turn), done marks a finished or stopped slot and panicVal
	// holds the panic that ended it, if any.
	next     func() (int64, bool)
	stop     func()
	yield    func(int64) bool
	clock    int64
	done     bool
	panicVal any
}

func (s *batchSlot) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	s.recycle()
	m := s.b.arena.newMachine(cfg, memBytes, seed)
	m.slot = s
	// A fresh machine's clock (0) is already past this, so it yields once
	// before its first op and enters the lockstep rotation.
	m.quantumEnd = -1
	s.cur = m
	return m
}

func (s *batchSlot) recycle() {
	if s.cur != nil {
		s.b.arena.release(s.cur)
		s.cur = nil
	}
}

// park suspends the running slot: it yields the machine's clock to the
// scheduler and, once resumed, returns the new quantum end. When the
// scheduler stops the slot instead, park tears the machine's agents down
// and unwinds the slot with batchKill.
func (s *batchSlot) park(m *Machine, clock int64) int64 {
	if !s.yield(clock) {
		m.killAll()
		m.agents = nil
		panic(batchKill{})
	}
	return clock + batchQuantum
}

// run is the slot's coroutine body (the iter.Pull sequence): it runs the
// slot's trials until they are done or the batch context is cancelled, and
// records the panic that ended them, if any.
func (s *batchSlot) run(yield func(int64) bool) {
	defer func() {
		r := recover()
		if _, isKill := r.(batchKill); !isKill {
			s.panicVal = r
		}
		s.recycle()
	}()
	s.yield = yield
	b := s.b
	for i := s.index; i < b.n && b.ctx.Err() == nil; i += len(b.slots) {
		b.body(i, s)
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

	b := &BatchMachine{ctx: ctx, arena: arena, n: n, body: body, slots: make([]batchSlot, width)}
	for i := range b.slots {
		s := &b.slots[i]
		s.b, s.index, s.clock = b, i, -1
		s.next, s.stop = iter.Pull(s.run)
	}

	// The scheduler: every live slot is suspended between turns. Fresh
	// slots sit at clock -1 so they are admitted before any mid-flight
	// trial. Every resume is a cancellation checkpoint: once ctx is done,
	// or once a slot has panicked, the slot that would have been resumed
	// is stopped instead, which tears its machine down.
	var firstPanic any
	aborting := false
	for {
		var s *batchSlot
		for i := range b.slots {
			if c := &b.slots[i]; !c.done && (s == nil || c.clock < s.clock) {
				s = c
			}
		}
		if s == nil {
			break
		}
		aborting = aborting || ctx.Err() != nil
		if aborting {
			s.stop()
		} else if clock, ok := s.next(); ok {
			s.clock = clock
			continue
		}
		s.done = true
		if s.panicVal != nil {
			if firstPanic == nil {
				firstPanic = s.panicVal
			}
			aborting = true
		}
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
	return ctx.Err()
}
