package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"leakyway/internal/hier"
	"leakyway/internal/sim"
)

// The parallel experiment engine.
//
// runExperiments fans a task list out over a pool of ctx.Jobs workers.
// Determinism is preserved by construction, not by luck:
//
//   - every task's stochastic behaviour derives from SplitSeed(master,
//     taskKey), never from a shared RNG, so it cannot observe scheduling;
//   - every task renders into a private buffer; buffers are flushed to
//     ctx.Out strictly in canonical (paper) order;
//   - concurrent metric recording goes through Result's lock and the
//     final map is key-addressed, so recording order is invisible.
//
// Inside a task, Parallel is the only fan-out and the only way to get a
// machine: it hands trial shards to idle pool workers, and each shard
// builds its machines through a sim.MachineSource that recycles them on a
// process-wide arena (sim.RunBatchContext). The pool uses a token bucket
// in which each outer worker holds a token for its lifetime: while all
// workers are busy, inner Parallel finds no free token and degrades to
// the calling goroutine running its shards itself (never a deadlock);
// during the tail of a run, drained workers return their tokens and the
// still-running heavy experiments soak them up.

// task is one unit of outer-level work.
type taskState struct {
	res *Result
	err error
	buf bytes.Buffer
}

// runExperiments executes the given experiments and emits their reports
// in canonical order. On error it still flushes every report preceding
// the failing experiment, mirroring the serial engine's behaviour.
func runExperiments(ctx *Context, list []Experiment) (map[string]*Result, error) {
	slots := make([]taskState, len(list))
	jobs := ctx.workers()
	ctx.Progress.SetPhasesTotal(len(list))
	// With one worker there is no spare capacity to recruit, so children
	// get no token bucket and Parallel degrades to a plain loop.
	var sem chan struct{}
	if jobs > 1 {
		sem = make(chan struct{}, jobs)
	}

	runTask := func(i int) {
		e := list[i]
		// Cancellation checkpoint: a cancelled run starts no new
		// experiments; already-running ones unwind at their next shard
		// boundary or machine context check (see Parallel).
		if err := ctx.canceled(); err != nil {
			slots[i].err = err
			return
		}
		sub := ctx.child(SplitSeed(ctx.Seed, e.ID), &slots[i].buf, e.ID)
		sub.sem = sem
		sub.guarded = true
		ctx.Progress.StartPhase(e.ID)
		header(sub, e)
		slots[i].res, slots[i].err = runGuarded(sub, e)
		ctx.Progress.EndPhase()
	}

	if jobs <= 1 {
		for i := range list {
			runTask(i)
		}
	} else {
		feed := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				for i := range feed {
					runTask(i)
				}
			}()
		}
		for i := range list {
			feed <- i
		}
		close(feed)
		wg.Wait()
	}

	out := map[string]*Result{}
	for i, e := range list {
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
// agent) into an error so one bad task cannot take down the whole pool —
// the panic-isolation discipline the daemon's workers rely on. Structured
// unwinds keep their meaning: a failf abort surfaces as its wrapped error
// (experiment + phase + cause), and a cancellation abort surfaces as the
// context's error, so callers can errors.Is against context.Canceled.
func runGuarded(ctx *Context, e Experiment) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case taskFail:
				err = v.err
			case taskAbort:
				err = v.err
			default:
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return e.Run(ctx)
}

// workers returns the effective worker count.
func (ctx *Context) workers() int {
	if ctx.Jobs > 1 {
		return ctx.Jobs
	}
	return 1
}

// Parallel runs fn(0, src), ..., fn(n-1, src), recruiting an extra
// goroutine for every free engine worker token; the calling goroutine
// always participates, so Parallel makes progress even when the pool is
// saturated and can never deadlock. Shards are handed out dynamically,
// so fn must be schedule-independent: write results into per-index
// slots and derive any randomness from ctx.ShardSeed(i) (or another
// SplitSeed key), never from state shared across shards.
//
// Each shard runs through sim.RunBatchContext and builds its machines
// through the MachineSource it is handed: the first machine borrows a
// recycled construction arena from the process free list, which the shard
// returns when it finishes cleanly (a shard that builds no machine pins
// none). Output is byte-identical to a fresh machine per build for every
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
//     machine stops within a few thousand simulated cycles (its arena is
//     dropped rather than recycled). Under the engine the task then
//     unwinds with the context's error; on a hand-built Context, Parallel
//     simply returns early and the caller must check ctx.Ctx itself.
func (ctx *Context) Parallel(n int, fn func(i int, src sim.MachineSource)) {
	run := ctx.Ctx
	if run == nil {
		run = context.Background()
	}
	// Progress checkpoint: shards scheduled and (below) completed. Both
	// are atomic ticks on the nil-safe Progress — they observe the run,
	// never steer it, so output stays byte-identical with telemetry on.
	ctx.Progress.AddShards(n)
	ctx.fanOut(n, func(i int) {
		sim.RunBatchContext(run, 1, nil, func(_ int, src sim.MachineSource) { fn(i, src) })
		ctx.Progress.ShardDone()
	})
	if err := ctx.canceled(); err != nil {
		ctx.abort(err)
	}
}

// fanOut runs fn(0), ..., fn(n-1), handing indices out dynamically to the
// calling goroutine plus one helper per engine worker token free at the
// call (none without a token bucket). It stops handing out indices once
// any fn panics or ctx.Ctx is cancelled, and re-raises the first panic on
// the calling goroutine.
func (ctx *Context) fanOut(n int, fn func(i int)) {
	var next atomic.Int64
	next.Store(-1)
	var stop atomic.Bool
	var firstPanic struct {
		mu  sync.Mutex
		val any
		set bool
	}
	work := func() {
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
			if stop.Load() || ctx.canceled() != nil {
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
recruit:
	for helpers := 0; helpers < n-1; helpers++ {
		select {
		case ctx.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-ctx.sem }()
				work()
			}()
		default:
			break recruit
		}
	}
	work()
	wg.Wait()
	firstPanic.mu.Lock()
	r, set := firstPanic.val, firstPanic.set
	firstPanic.mu.Unlock()
	if set {
		panic(r)
	}
}

// abort unwinds a cancelled task. Under the engine (guarded contexts) it
// panics with taskAbort, which runGuarded turns into the context error;
// on a hand-built context it is a no-op so the panic can never reach
// library callers, and Parallel just returns early instead.
func (ctx *Context) abort(err error) {
	if ctx.guarded {
		panic(taskAbort{err})
	}
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
	// On an unguarded context a cancelled Parallel returns early instead
	// of unwinding; surface the context error rather than partial output.
	if err := ctx.canceled(); err != nil {
		return err
	}
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

// sortedKeys is a small helper for deterministic iteration in tests.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
