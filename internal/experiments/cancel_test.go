package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// testContext builds an engine context with the given job count writing to
// a throwaway buffer.
func testContext(jobs int) *Context {
	ctx := NewContext(&bytes.Buffer{})
	ctx.Quick = true
	ctx.Jobs = jobs
	return ctx
}

// sleepExperiment runs shards sleeping d each through ctx.Parallel — the
// exact shape every sharded experiment has, with a controlled shard
// duration so promptness bounds are meaningful in CI.
func sleepExperiment(id string, shards int, d time.Duration, ran *atomic.Int64) Experiment {
	return Experiment{
		ID:    id,
		Title: "synthetic sharded sleeper",
		Run: func(ctx *Context) (*Result, error) {
			ctx.Parallel(shards, func(i int, _ sim.MachineSource) {
				if ran != nil {
					ran.Add(1)
				}
				time.Sleep(d)
			})
			return &Result{}, nil
		},
	}
}

// spinTrial is a Parallel shard whose machine's agents would spin far
// longer than any test allows; only cancellation ends them.
func spinTrial(ctx *Context, started *atomic.Int64) func(i int, src sim.MachineSource) {
	return func(i int, src sim.MachineSource) {
		started.Add(1)
		m := src.NewMachine(platform.Skylake(), 1<<26, ctx.ShardSeed(i))
		m.Spawn("spinner", 0, nil, func(c *sim.Core) {
			buf := c.Alloc(mem.PageSize)
			for k := 0; ; k++ {
				c.Load(buf + mem.VAddr((k%16)*64))
			}
		})
		m.SpawnDaemon("noise", 1, nil, func(c *sim.Core) {
			for {
				c.Spin(50)
			}
		})
		m.Run()
	}
}

// spinExperiment runs spinTrial shards through ctx.Parallel.
func spinExperiment(id string, trials int, started *atomic.Int64) Experiment {
	return Experiment{
		ID:    id,
		Title: "synthetic spinning trials",
		Run: func(ctx *Context) (*Result, error) {
			ctx.Parallel(trials, spinTrial(ctx, started))
			return &Result{}, nil
		},
	}
}

// settleGoroutines waits for the goroutine count to drop back to at most
// base+slack, failing the test if it never does (a leaked worker).
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d running, started with %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidExperiment proves a cancelled run returns context.Canceled
// within about one trial shard, at -jobs 1 and 4, without leaking
// goroutines. The shard duration is 10ms, so the generous 3s bound is
// hundreds of shards away from a run that ignores cancellation (the full
// task list would take over 30s serially).
func TestCancelMidExperiment(t *testing.T) {
	const (
		shards   = 150
		shardDur = 10 * time.Millisecond
	)
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := testContext(jobs)
			cctx, cancel := context.WithCancel(context.Background())
			ctx.Ctx = cctx
			var ran atomic.Int64
			list := []Experiment{
				sleepExperiment("sleep-a", shards, shardDur, &ran),
				sleepExperiment("sleep-b", shards, shardDur, &ran),
			}
			go func() {
				time.Sleep(40 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := runExperiments(ctx, list)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if elapsed > 3*time.Second {
				t.Fatalf("cancellation took %v; want well under one run (shards are %v)", elapsed, shardDur)
			}
			if n := ran.Load(); n >= int64(2*shards) {
				t.Fatalf("all %d shards ran despite cancellation", n)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestCancelBatchFleet proves cancellation reaches machines running inside
// Parallel shards: machines that never finish return context.Canceled
// promptly at -jobs 1 and 4, without leaking worker or agent goroutines.
func TestCancelBatchFleet(t *testing.T) {
	const trials = 64
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := testContext(jobs)
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx.Ctx = cctx
			var started atomic.Int64
			time.AfterFunc(40*time.Millisecond, cancel)
			start := time.Now()
			_, err := runExperiments(ctx, []Experiment{spinExperiment("spin", trials, &started)})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if elapsed > 3*time.Second {
				t.Fatalf("cancellation took %v; running trials must stop within a context check", elapsed)
			}
			if n := started.Load(); n >= trials {
				t.Fatalf("all %d trials started despite cancellation", n)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestCancelBeforeStart proves a pre-cancelled context starts no work at
// all: RunAll over the full registry must return context.Canceled without
// simulating anything.
func TestCancelBeforeStart(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			ctx := testContext(jobs)
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			ctx.Ctx = cctx
			start := time.Now()
			_, err := RunAll(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("pre-cancelled RunAll took %v; it must not simulate", elapsed)
			}
		})
	}
}

// TestDeadlinePropagates proves per-job deadlines surface as
// context.DeadlineExceeded — what the daemon's job-timeout path relies on.
func TestDeadlinePropagates(t *testing.T) {
	ctx := testContext(4)
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ctx.Ctx = cctx
	_, err := runExperiments(ctx, []Experiment{sleepExperiment("sleep", 500, 5*time.Millisecond, nil)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestShardPanicIsIsolated proves a panic inside a trial shard — on
// whichever goroutine the engine scheduled it — fails that task with an
// error instead of killing the process, at both job counts. This is the
// panic-isolation property the daemon's workers depend on.
func TestShardPanicIsIsolated(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			ctx := testContext(jobs)
			bomb := Experiment{
				ID:    "bomb",
				Title: "panics in shard 3",
				Run: func(ctx *Context) (*Result, error) {
					ctx.Parallel(8, func(i int, _ sim.MachineSource) {
						if i == 3 {
							panic("boom")
						}
					})
					return &Result{}, nil
				},
			}
			_, err := runExperiments(ctx, []Experiment{bomb})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("want shard panic surfaced as error, got %v", err)
			}
		})
	}
}

// TestFailfCarriesExperimentAndPhase pins the structured-failure format:
// a failf abort surfaces as "experiment <id>: <phase>: <cause>" with the
// cause preserved for errors.Is.
func TestFailfCarriesExperimentAndPhase(t *testing.T) {
	cause := errors.New("out of pages")
	ctx := testContext(1)
	e := Experiment{
		ID:    "alloc-fail",
		Title: "fails during setup",
		Run: func(ctx *Context) (*Result, error) {
			failf("alloc-fail", "alloc anchor page", cause)
			return &Result{}, nil
		},
	}
	_, err := runExperiments(ctx, []Experiment{e})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause not preserved: %v", err)
	}
	want := "experiment alloc-fail: alloc anchor page: out of pages"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
	if strings.Contains(err.Error(), "panic:") {
		t.Fatalf("failf must not read as a panic: %v", err)
	}
}
