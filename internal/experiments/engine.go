package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"leakyway/internal/hier"
	"leakyway/internal/sim"
	"leakyway/internal/telemetry"
)

// The parallel experiment engine.
//
// One fan-out, fanOut, schedules all work: runExperiments hands it the
// experiment list, and Parallel hands it each experiment's trial shards.
// Determinism is preserved by construction, not by luck:
//
//   - every task's stochastic behaviour derives from SplitSeed(master,
//     taskKey), never from a shared RNG, so it cannot observe scheduling;
//   - every task renders into a private buffer; buffers are flushed to
//     ctx.Out strictly in canonical (paper) order;
//   - concurrent metric recording goes through Result's lock and the
//     final map is key-addressed, so recording order is invisible.
//
// One Budget of worker tokens serves experiments and shards alike, one
// token per goroutine running engine work. The goroutine that calls
// runExperiments takes the first; every fanOut recruits one helper per
// token free at the call, and runs indices on its calling goroutine too.
// So while every token is out an inner Parallel runs its shards itself
// (never a deadlock). A fanOut caller that has run out of indices lends
// its token while it waits for its helpers, so during the tail of a run
// the still-running heavy experiments' next Parallel calls soak up every
// idle worker. A goroutine that must wait for a token (an execution
// starting, or a fanOut caller taking its token back) waits for at most
// one shard: a helper hands its token back at its next shard boundary
// while anyone waits.
//
// A run whose ctx.Ctx carries no budget builds a private one of ctx.Jobs
// tokens (none when Jobs <= 1); the CLI's -jobs takes this path. The
// daemon owns one budget of -workers tokens and hands it to every run
// through ctx.Ctx (WithBudget), so a lone job borrows the workers the
// others leave idle. Either way the output is byte-identical, since no
// task can observe how many workers ran it.
//
// Parallel is also the only way to get a machine: each shard builds its
// machines through a sim.MachineSource that recycles them through the
// process-wide hierarchy pool and shuffle memo (sim.RunBatchContext).

// taskState is one experiment's outcome and rendered report.
type taskState struct {
	res *Result
	err error
	buf bytes.Buffer
	ran bool
}

// runExperiments executes the given experiments and emits their reports
// in canonical order. On error it still flushes every report preceding
// the failing experiment, mirroring the serial engine's behaviour.
func runExperiments(ctx *Context, list []Experiment) (map[string]*Result, error) {
	slots := make([]taskState, len(list))
	ctx.Progress.SetPhasesTotal(len(list))
	b := budgetOf(ctx.Ctx)
	if b == nil && ctx.Jobs > 1 {
		b = NewBudget(ctx.Jobs, nil)
	}
	b.acquire() // this goroutine's token
	defer b.release()
	ctx.fanOut(b, len(list), func(i int) {
		e := list[i]
		sub := ctx.child(SplitSeed(ctx.Seed, e.ID), &slots[i].buf, e.ID)
		sub.budget = b
		ctx.Progress.StartPhase(e.ID)
		header(sub, e)
		slots[i].res, slots[i].err = runGuarded(sub, e)
		slots[i].ran = true
		ctx.Progress.EndPhase()
	})

	out := map[string]*Result{}
	for i, e := range list {
		if !slots[i].ran {
			// fanOut starts no further experiment once the run is
			// cancelled; running ones unwind through Parallel.
			slots[i].err = ctx.canceled()
		}
		if slots[i].res != nil {
			slots[i].res.Report = slots[i].buf.String()
		}
		if ctx.Out != nil {
			ctx.mu.Lock()
			_, werr := ctx.Out.Write(slots[i].buf.Bytes())
			ctx.mu.Unlock()
			if werr != nil {
				return out, fmt.Errorf("experiments: writing report: %w", werr)
			}
		}
		if slots[i].err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.ID, slots[i].err)
		}
		out[e.ID] = slots[i].res
	}
	return out, nil
}

// runGuarded invokes the experiment, converting a panic (e.g. from a sim
// agent) into an error so one bad task cannot take down the whole run —
// the panic-isolation discipline the daemon's workers rely on. An unwind
// keeps its meaning: it surfaces as the error it carries, a failf's
// (experiment + phase + cause) or a cancelled run's context error, so
// callers can errors.Is against context.Canceled.
func runGuarded(ctx *Context, e Experiment) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if u, ok := r.(unwind); ok {
				err = u.err
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return e.Run(ctx)
}

// Parallel runs fn(0, src), ..., fn(n-1, src) through fanOut, recruiting
// an extra goroutine for every free engine worker token; the calling
// goroutine always participates, so Parallel makes progress even when
// every token is out and can never deadlock. Shards are handed out
// dynamically, so fn must be schedule-independent: write results into
// per-index slots and derive any randomness from ctx.ShardSeed(i) (or
// another SplitSeed key), never from state shared across shards.
//
// Each shard runs through sim.RunBatchContext and builds its machines
// through the MachineSource it is handed, which takes hierarchies from the
// process-wide pool and frame shuffles from the process-wide memo; a shard
// that finishes cleanly returns its last hierarchy to the pool (a shard
// that builds no machine builds nothing). Output is byte-identical to a fresh machine per build for every
// Jobs value, tracer and telemetry setting. A shard must not touch a
// machine after requesting the next one, and no machine may outlive its
// shard.
//
// Two robustness properties hold:
//
//   - a panic in any shard — including one running on a recruited helper
//     goroutine — stops the loop and is re-raised on the calling
//     goroutine, where the engine's runGuarded converts it into a task
//     error instead of killing the process;
//   - when ctx.Ctx is cancelled, no further shards start and a running
//     machine stops within a few thousand simulated cycles (its hierarchy
//     is dropped rather than recycled); the task then unwinds with the
//     context's error. The unwind is a panic that runGuarded recovers, so
//     a cancellable Context must be run through RunAll, RunOne or
//     RunSpecs.
func (ctx *Context) Parallel(n int, fn func(i int, src sim.MachineSource)) {
	run := ctx.Ctx
	if run == nil {
		run = context.Background()
	}
	// Progress checkpoint: shards scheduled and (below) completed. Both
	// are atomic ticks on the nil-safe Progress — they observe the run,
	// never steer it, so output stays byte-identical with telemetry on.
	ctx.Progress.AddShards(n)
	ctx.fanOut(ctx.budget, n, func(i int) {
		sim.RunBatchContext(run, 1, nil, func(_ int, src sim.MachineSource) { fn(i, src) })
		ctx.Progress.ShardDone()
	})
	if err := ctx.canceled(); err != nil {
		panic(unwind{err})
	}
}

// fanOut runs fn(0), ..., fn(n-1), handing indices out dynamically to the
// calling goroutine, which must hold a token of b, plus one helper per
// token free in b at the call (none when b is nil). A helper holds its
// token until no index is left, but hands it back instead of taking
// another index while some goroutine waits for a token; the caller lends
// its own while it waits for its helpers. fanOut stops handing out indices once any fn panics or
// ctx.Ctx is cancelled, and re-raises the first panic on the calling
// goroutine.
func (ctx *Context) fanOut(b *Budget, n int, fn func(i int)) {
	var next atomic.Int64
	next.Store(-1)
	var stop atomic.Bool
	var firstPanic struct {
		mu  sync.Mutex
		val any
		set bool
	}
	work := func(helper bool) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				firstPanic.mu.Lock()
				if !firstPanic.set {
					firstPanic.val, firstPanic.set = r, true
				}
				firstPanic.mu.Unlock()
			}
		}()
		for {
			if stop.Load() || ctx.canceled() != nil || helper && b.contended() {
				return
			}
			i := int(next.Add(1))
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	helpers := 0
	for ; helpers < n-1 && b.tryAcquire(); helpers++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.release()
			work(true)
		}()
	}
	work(false)
	if helpers > 0 {
		// Only waiting now: lend this goroutine's token to other
		// fan-outs, and take one back before returning to the caller.
		b.release()
		wg.Wait()
		b.acquire()
	}
	firstPanic.mu.Lock()
	r, set := firstPanic.val, firstPanic.set
	firstPanic.mu.Unlock()
	if set {
		panic(r)
	}
}

// Budget is a pool of engine worker tokens, one per goroutine running
// engine work, shared by every run it is handed to (see fanOut). A nil
// *Budget is a budget of one: its holder runs everything itself.
type Budget struct {
	tokens   chan struct{}
	waiting  atomic.Int64
	recruits *telemetry.Counter
}

// NewBudget returns a budget of n tokens. recruits, when non-nil, counts
// every helper goroutine a fan-out recruits.
func NewBudget(n int, recruits *telemetry.Counter) *Budget {
	return &Budget{tokens: make(chan struct{}, n), recruits: recruits}
}

// InUse reports how many tokens are out: the runs holding one plus the
// helpers they have recruited.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return len(b.tokens)
}

// acquire takes a token, waiting while none is free; helpers see the wait
// and hand theirs back at their next shard boundary.
func (b *Budget) acquire() {
	if b == nil || b.tryTake() {
		return
	}
	b.waiting.Add(1)
	b.tokens <- struct{}{}
	b.waiting.Add(-1)
}

// tryAcquire takes a token for a new helper if one is free.
func (b *Budget) tryAcquire() bool {
	if b == nil || !b.tryTake() {
		return false
	}
	if b.recruits != nil {
		b.recruits.Inc()
	}
	return true
}

func (b *Budget) tryTake() bool {
	select {
	case b.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *Budget) release() {
	if b != nil {
		<-b.tokens
	}
}

// contended reports whether some goroutine is waiting for a token.
func (b *Budget) contended() bool { return b != nil && b.waiting.Load() > 0 }

type budgetKey struct{}

// WithBudget returns a context that makes every run whose Context.Ctx
// derives from it draw its workers from b instead of a private budget of
// Context.Jobs tokens.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// budgetOf returns the budget WithBudget attached to ctx, or nil.
func budgetOf(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// EachPlatform runs fn once per context platform — concurrently when
// engine workers are free — and returns the first error in platform
// order. Each invocation gets a sub-context scoped to that single
// platform, with a platform-derived seed and a private output buffer;
// buffers are flushed to ctx.Out in platform order, so the rendered
// report is identical to a serial loop's.
func (ctx *Context) EachPlatform(fn func(sub *Context, cfg hier.Config) error) error {
	n := len(ctx.Platforms)
	bufs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	ctx.Parallel(n, func(i int, _ sim.MachineSource) {
		cfg := ctx.Platforms[i]
		sub := ctx.child(ctx.SeedFor("platform/"+shortName(cfg)), &bufs[i], "platform/"+shortName(cfg))
		sub.Platforms = []hier.Config{cfg}
		errs[i] = fn(sub, cfg)
	})
	for i := range bufs {
		if ctx.Out != nil {
			ctx.mu.Lock()
			ctx.Out.Write(bufs[i].Bytes())
			ctx.mu.Unlock()
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// MetricsMap flattens RunAll's results into the plain map the -json
// export and the golden-metrics tests share.
func MetricsMap(results map[string]*Result) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(results))
	for id, r := range results {
		m := map[string]float64{}
		if r != nil {
			for k, v := range r.Metrics {
				m[k] = v
			}
		}
		out[id] = m
	}
	return out
}

// WriteMetricsJSON renders results as canonical JSON (keys sorted,
// indented, full float precision) so CI can diff metric exports across
// runs byte-for-byte.
func WriteMetricsJSON(w io.Writer, results map[string]*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MetricsMap(results))
}
