package sim

import (
	"context"
	"math/rand"
	"sync"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

// This file is the recycling trial kernel. A Monte-Carlo sweep runs many
// short independent machines that share one platform geometry and differ
// only in seed or channel parameters; building each machine from scratch
// (frame shuffle, cache arrays, per-set policy state) costs more than
// stepping it. RunBatch runs the trials one after another on an Arena,
// which recycles hierarchies through one process-wide hier.Pool and shares
// immutable frame shuffles (mem.FrameShuffle) from one process-wide memo.
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

// Process-wide construction state. Experiment contexts are created freely
// (one per daemon job, one per benchmark iteration), so everything an arena
// recycles lives here, shared by every arena: idle hierarchies in one pool
// and frame shuffles in one memo. Each is behind its own lock, taken when a
// machine is built or recycled and never per simulated access. The pool
// holds at most as many hierarchies per configuration as were checked out
// at once.
var (
	hierarchies = hier.NewPool()
	shuffles    = struct {
		sync.Mutex
		m map[shuffleKey]*mem.FrameShuffle
	}{m: map[shuffleKey]*mem.FrameShuffle{}}
)

// shuffleKey identifies one frame shuffle: pool size plus the PhysMem seed.
type shuffleKey struct {
	bytes uint64
	seed  int64
}

// maxShuffles bounds the shuffle memo; a sweep touches a handful of
// (size, seed) pairs, so overflow means the workload changed and the memo
// is simply restarted.
const maxShuffles = 32

// shuffle returns the memoized frame shuffle for (bytes, seed), computing
// and memoizing it on first use. A FrameShuffle is immutable, so it is
// built outside the lock and shared by every goroutine; two builders racing
// on one key compute the same permutation.
func shuffle(bytes uint64, seed int64) *mem.FrameShuffle {
	k := shuffleKey{bytes, seed}
	shuffles.Lock()
	sh, ok := shuffles.m[k]
	shuffles.Unlock()
	if ok {
		return sh
	}
	sh = mem.NewFrameShuffle(bytes, seed)
	shuffles.Lock()
	if len(shuffles.m) >= maxShuffles {
		shuffles.m = map[shuffleKey]*mem.FrameShuffle{}
	}
	shuffles.m[k] = sh
	shuffles.Unlock()
	return sh
}

// Arena is the MachineSource of one trial loop: its NewMachine recycles the
// machine it returned last into the process-wide pool and builds the next
// from it. It holds nothing else, so a fresh arena costs nothing to make.
// It is not goroutine-safe.
type Arena struct {
	// cur is the machine NewMachine returned last, recycled by the next
	// call.
	cur *Machine
	// ctx is handed to every machine the arena builds (nil for a context
	// that can never be cancelled), which Machine.Run checks; see
	// RunBatchContext.
	ctx context.Context
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewMachine is MustNewMachine through the process-wide pool and shuffle
// memo, and the machine the arena returned last is recycled first, so the
// caller must not touch it again. The result is indistinguishable from
// MustNewMachine(cfg, memBytes, seed).
func (ar *Arena) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	ar.recycle()
	cfg.Seed = seed
	h, err := hierarchies.Get(cfg)
	if err != nil {
		panic(err)
	}
	ar.cur = &Machine{
		H:         h,
		Phys:      mem.NewPhysMemFrom(shuffle(memBytes, seed^0x9e3779b9)),
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		SyncSlack: 3,
		ctx:       ar.ctx,
	}
	return ar.cur
}

// recycle returns the last machine's hierarchy to the pool.
func (ar *Arena) recycle() {
	if ar.cur != nil {
		hierarchies.Put(ar.cur.H)
		ar.cur = nil
	}
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

// RunBatchContext executes body(0), ..., body(n-1) in order on arena (a
// nil arena is a fresh one). A clean run returns its last machine's
// hierarchy to the process-wide pool; a cancelled or panicking run drops
// it. Bodies build their machines through the MachineSource they receive;
// the simulation output of every trial is byte-identical to a fresh
// MustNewMachine per trial.
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
	if arena == nil {
		arena = NewArena()
	}
	if ctx.Done() != nil {
		arena.ctx = ctx
	}
	defer func() {
		r := recover()
		err = ctx.Err()
		if r == nil && err == nil {
			arena.recycle()
		}
		arena.cur, arena.ctx = nil, nil
		if r != nil {
			if _, ok := r.(canceledTrial); !ok {
				panic(r)
			}
		}
	}()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		body(i, arena)
	}
	return nil
}
