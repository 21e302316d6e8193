package sim

import (
	"context"
	"math/rand"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

// This file is the recycling trial kernel. A Monte-Carlo sweep runs many
// short independent machines that share one platform geometry and differ
// only in seed or channel parameters; building each machine from scratch
// (frame shuffle, cache arrays, per-set policy state) costs more than
// stepping it. RunBatch runs the trials one after another on an Arena,
// which recycles hierarchies (hier.Pool) and shares immutable frame
// shuffles (mem.FrameShuffle) across them.
//
// Recycling is invisible to the simulation: a recycled machine is
// indistinguishable from a fresh one, so a sweep is byte-identical to a
// loop over fresh machines — the equivalence tests in batch_test.go (whose
// scalar reference is that loop) and the experiment goldens pin this.

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
// pool and a bounded cache of frame shuffles. It is a MachineSource whose
// NewMachine recycles the machine it returned last. It is not
// goroutine-safe.
type Arena struct {
	pool     *hier.Pool
	shuffles map[shuffleKey]*mem.FrameShuffle

	// cur is the machine NewMachine returned last, recycled by the next
	// call.
	cur *Machine
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

// NewMachine is MustNewMachine through the arena: the hierarchy comes from
// the pool and the frame shuffle from the cache, and the machine the arena
// returned last is recycled first, so the caller must not touch it again.
// The result is indistinguishable from MustNewMachine(cfg, memBytes, seed).
func (ar *Arena) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	ar.recycle()
	cfg.Seed = seed
	h, err := ar.pool.Get(cfg)
	if err != nil {
		panic(err)
	}
	ar.cur = &Machine{
		H:         h,
		Phys:      mem.NewPhysMemFrom(ar.shuffle(memBytes, seed^0x9e3779b9)),
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		SyncSlack: 3,
	}
	return ar.cur
}

// recycle returns the last machine's hierarchy to the pool.
func (ar *Arena) recycle() {
	if ar.cur != nil {
		ar.pool.Put(ar.cur.H)
		ar.cur = nil
	}
}

// Process-global arena free list. Experiment contexts are created freely
// (one per daemon job, one per benchmark iteration), so tying recycled
// hierarchies to a context would rebuild them constantly; a small global
// pool keeps the steady-state construction cost near zero while bounding
// retained memory to a few workers' worth of hierarchies.
var arenaPool = make(chan *Arena, 8)

// acquireArena returns a recycled arena, or a fresh one when none is idle.
func acquireArena() *Arena {
	select {
	case ar := <-arenaPool:
		return ar
	default:
		return NewArena()
	}
}

// releaseArena returns an arena to the global free list; beyond the list's
// capacity the arena is dropped for the GC.
func releaseArena(ar *Arena) {
	select {
	case arenaPool <- ar:
	default:
	}
}

// batchSource is the MachineSource RunBatchContext hands its bodies. It
// builds through the caller's arena or, without one, borrows an arena from
// the free list on its first NewMachine call, so a run that builds no
// machine pins none. Every machine it builds gets ctx (nil for a context
// that can never be cancelled), which Machine.Run checks.
type batchSource struct {
	ar       *Arena
	borrowed bool
	ctx      context.Context
}

func (s *batchSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	if s.ar == nil {
		s.ar, s.borrowed = acquireArena(), true
	}
	m := s.ar.NewMachine(cfg, memBytes, seed)
	m.ctx = s.ctx
	return m
}

// ctxCheckCycles is how many simulated cycles a cancellable machine runs
// between checks of its context (see Machine.Run): often enough that a
// cancelled trial stops within milliseconds, rarely enough that the check
// is noise against thousands of memory ops.
const ctxCheckCycles = 8192

// canceledTrial unwinds a trial whose context was cancelled mid-run;
// RunBatchContext recovers it.
type canceledTrial struct{}

// RunBatch is RunBatchContext without cancellation. width has no effect:
// trials always run one after another.
func RunBatch(n, width int, arena *Arena, body func(i int, src MachineSource)) {
	RunBatchContext(context.Background(), n, arena, body)
}

// RunBatchContext executes body(0), ..., body(n-1) in order on arena, or
// with a nil arena on one borrowed from the process free list when the
// first body builds a machine. The arena is returned to the list after a
// clean run and dropped after a cancelled or panicking one. Bodies build
// their machines through the MachineSource they receive; the simulation
// output of every trial is byte-identical to a fresh MustNewMachine per
// trial.
//
// ctx is checked before each trial, and machines built during the call
// check it every ctxCheckCycles simulated cycles while they run: a
// cancelled trial tears its agents down and unwinds, no further trial
// starts, and RunBatchContext returns ctx.Err(). A body that panics stops
// the loop and the panic is re-raised on the caller, after Machine.Run has
// torn that machine's agents down. RunBatchContext returns ctx.Err()
// whenever ctx is done on return, so a nil error means every trial ran to
// completion.
func RunBatchContext(ctx context.Context, n int, arena *Arena, body func(i int, src MachineSource)) (err error) {
	src := &batchSource{ar: arena}
	if ctx.Done() != nil {
		src.ctx = ctx
	}
	defer func() {
		r := recover()
		err = ctx.Err()
		if src.ar != nil {
			src.ar.recycle()
			if src.borrowed && r == nil && err == nil {
				releaseArena(src.ar)
			}
		}
		if r != nil {
			if _, ok := r.(canceledTrial); !ok {
				panic(r)
			}
		}
	}()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		body(i, src)
	}
	return nil
}
