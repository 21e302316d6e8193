package experiments

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"leakyway/internal/sim"
	"leakyway/internal/telemetry"
)

// budgetRun runs list as one execution drawing its workers from b, the way
// the daemon runs a job: Jobs says serial, and the budget in Ctx decides.
func budgetRun(parent context.Context, b *Budget, list []Experiment) error {
	ctx := NewContext(io.Discard)
	ctx.Jobs = 1
	ctx.Ctx = WithBudget(parent, b)
	_, err := runExperiments(ctx, list)
	return err
}

// heldExperiment fans n shards of d each out through Parallel, counting
// them on g.
func heldExperiment(g *peakGauge, n int, d time.Duration) []Experiment {
	return []Experiment{{ID: "held", Title: "t", Run: func(ctx *Context) (*Result, error) {
		ctx.Parallel(n, func(int, sim.MachineSource) { g.hold(d) })
		return &Result{}, nil
	}}}
}

// TestSharedBudgetCapsConcurrentRuns: executions sharing one budget never
// run more bodies at once than it has tokens, even when more executions
// than tokens start together.
func TestSharedBudgetCapsConcurrentRuns(t *testing.T) {
	b := NewBudget(2, nil)
	var g peakGauge
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := budgetRun(context.Background(), b, heldExperiment(&g, 6, 10*time.Millisecond)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak := g.peak.Load(); peak > 2 {
		t.Errorf("%d bodies ran at once on a budget of 2", peak)
	}
	if n := b.InUse(); n != 0 {
		t.Errorf("%d tokens still out after every run returned", n)
	}
}

// TestSharedBudgetLoneRunReachesAll: a lone execution borrows every idle
// token, and each borrowed helper is counted.
func TestSharedBudgetLoneRunReachesAll(t *testing.T) {
	var recruits telemetry.Counter
	b := NewBudget(3, &recruits)
	var g peakGauge
	if err := budgetRun(context.Background(), b, heldExperiment(&g, 6, 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if peak := g.peak.Load(); peak != 3 {
		t.Errorf("lone run peaked at %d bodies, want the whole budget of 3", peak)
	}
	if n := recruits.Value(); n != 2 {
		t.Errorf("%d helpers recruited, want 2", n)
	}
}

// TestSharedBudgetStartWaitsOneShard: an execution that starts while
// another's helper holds the last free token waits only for the shard that
// helper is running, not for the other execution to finish.
func TestSharedBudgetStartWaitsOneShard(t *testing.T) {
	const d = 40 * time.Millisecond
	b := NewBudget(2, nil)
	var g peakGauge
	done := make(chan error, 1)
	go func() { done <- budgetRun(context.Background(), b, heldExperiment(&g, 30, d)) }()
	for g.cur.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	var waited time.Duration
	second := []Experiment{{ID: "second", Title: "t", Run: func(*Context) (*Result, error) {
		waited = time.Since(start)
		return &Result{}, nil
	}}}
	if err := budgetRun(context.Background(), b, second); err != nil {
		t.Fatal(err)
	}
	// Without the hand-back the second run would wait for the first
	// run's remaining shards, about 15 × d.
	if waited > 5*d {
		t.Errorf("second execution waited %v for a token, want at most about one %v shard", waited, d)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak := g.peak.Load(); peak > 2 {
		t.Errorf("%d bodies ran at once on a budget of 2", peak)
	}
}

// TestSharedBudgetEmptyAfterRun: every token comes back however the
// execution ends.
func TestSharedBudgetEmptyAfterRun(t *testing.T) {
	errFail := errors.New("experiment failed")
	for _, tc := range []struct {
		name string
		run  func(ctx *Context, cancel context.CancelFunc) (*Result, error)
	}{
		{"finishes", func(ctx *Context, _ context.CancelFunc) (*Result, error) {
			ctx.Parallel(4, func(int, sim.MachineSource) { time.Sleep(5 * time.Millisecond) })
			return &Result{}, nil
		}},
		{"fails", func(ctx *Context, _ context.CancelFunc) (*Result, error) {
			ctx.Parallel(4, func(int, sim.MachineSource) { time.Sleep(5 * time.Millisecond) })
			return nil, errFail
		}},
		{"panics", func(ctx *Context, _ context.CancelFunc) (*Result, error) {
			ctx.Parallel(4, func(i int, _ sim.MachineSource) {
				time.Sleep(5 * time.Millisecond)
				if i == 2 {
					panic("shard panic")
				}
			})
			return &Result{}, nil
		}},
		{"is cancelled", func(ctx *Context, cancel context.CancelFunc) (*Result, error) {
			ctx.Parallel(40, func(i int, _ sim.MachineSource) {
				if i == 1 {
					cancel()
				}
				time.Sleep(5 * time.Millisecond)
			})
			return &Result{}, nil
		}},
	} {
		b := NewBudget(2, nil)
		parent, cancel := context.WithCancel(context.Background())
		err := budgetRun(parent, b, []Experiment{{ID: "x", Title: "t", Run: func(ctx *Context) (*Result, error) {
			return tc.run(ctx, cancel)
		}}})
		cancel()
		if tc.name == "finishes" && err != nil || tc.name != "finishes" && err == nil {
			t.Errorf("%s: run error %v", tc.name, err)
		}
		if n := b.InUse(); n != 0 {
			t.Errorf("%s: %d tokens still out after the run returned", tc.name, n)
		}
	}
}
