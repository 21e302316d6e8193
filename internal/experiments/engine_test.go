package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leakyway/internal/sim"
)

// fakeSuite builds a list of synthetic experiments that each chat on
// ctx.Printf from inside ctx.Parallel shards — the most interleaving-prone
// write pattern the engine supports.
func fakeSuite(n, lines int) []Experiment {
	list := make([]Experiment, n)
	for i := range list {
		id := fmt.Sprintf("fake%02d", i)
		list[i] = Experiment{
			ID:    id,
			Title: "synthetic " + id,
			Run: func(ctx *Context) (*Result, error) {
				res := &Result{}
				ctx.Parallel(lines, func(j int, _ sim.MachineSource) {
					// Yield aggressively so broken locking would actually
					// interleave instead of passing by scheduling luck.
					runtime.Gosched()
					res.Metric(fmt.Sprintf("m%d", j), float64(ctx.ShardSeed(j)))
				})
				for j := 0; j < lines; j++ {
					ctx.Printf("%s line %d\n", id, j)
				}
				return res, nil
			},
		}
	}
	return list
}

// TestEngineNoInterleavedOutput runs a chatty fake suite at jobs=8 and
// asserts the report is exactly the serial concatenation: every
// experiment's lines contiguous, experiments in list order.
func TestEngineNoInterleavedOutput(t *testing.T) {
	const n, lines = 12, 40
	var want strings.Builder
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("fake%02d", i)
		want.WriteString(fmt.Sprintf("\n=== %s — synthetic %s ===\n", id, id))
		for j := 0; j < lines; j++ {
			want.WriteString(fmt.Sprintf("%s line %d\n", id, j))
		}
	}
	for trial := 0; trial < 3; trial++ {
		var buf bytes.Buffer
		ctx := NewContext(&buf)
		ctx.Jobs = 8
		if _, err := runExperiments(ctx, fakeSuite(n, lines)); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want.String() {
			t.Fatalf("trial %d: interleaved or reordered output:\n%s", trial, got)
		}
	}
}

// TestEngineMetricsIndependentOfJobs runs the fake suite across worker
// counts and checks the metric maps agree — the shard seeds must not see
// scheduling.
func TestEngineMetricsIndependentOfJobs(t *testing.T) {
	runWith := func(jobs int) map[string]map[string]float64 {
		ctx := NewContext(io.Discard)
		ctx.Jobs = jobs
		res, err := runExperiments(ctx, fakeSuite(6, 25))
		if err != nil {
			t.Fatal(err)
		}
		return MetricsMap(res)
	}
	ref := runWith(1)
	for _, jobs := range []int{2, 8} {
		got := runWith(jobs)
		for id := range ref {
			for k, v := range ref[id] {
				if got[id][k] != v {
					t.Fatalf("jobs=%d: %s/%s = %v, want %v", jobs, id, k, got[id][k], v)
				}
			}
		}
	}
}

// TestEngineErrorStillFlushesPriorReports mirrors the serial engine's
// contract: on failure, every report before the failing experiment is
// flushed and the error names the experiment.
func TestEngineErrorStillFlushesPriorReports(t *testing.T) {
	boom := errors.New("boom")
	list := []Experiment{
		{ID: "ok1", Title: "t", Run: func(ctx *Context) (*Result, error) {
			ctx.Printf("ok1 ran\n")
			return &Result{}, nil
		}},
		{ID: "bad", Title: "t", Run: func(ctx *Context) (*Result, error) {
			return nil, boom
		}},
		{ID: "ok2", Title: "t", Run: func(ctx *Context) (*Result, error) {
			ctx.Printf("ok2 ran\n")
			return &Result{}, nil
		}},
	}
	for _, jobs := range []int{1, 4} {
		var buf bytes.Buffer
		ctx := NewContext(&buf)
		ctx.Jobs = jobs
		res, err := runExperiments(ctx, list)
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: err = %v, want %v", jobs, err, boom)
		}
		if !strings.Contains(err.Error(), "bad") {
			t.Fatalf("jobs=%d: error does not name the experiment: %v", jobs, err)
		}
		if !strings.Contains(buf.String(), "ok1 ran") {
			t.Fatalf("jobs=%d: report before the failure was dropped", jobs)
		}
		if _, found := res["ok1"]; !found {
			t.Fatalf("jobs=%d: results before the failure were dropped", jobs)
		}
	}
}

// TestEnginePanicBecomesError checks runGuarded converts an agent panic
// into a per-experiment error instead of killing the pool.
func TestEnginePanicBecomesError(t *testing.T) {
	list := []Experiment{{ID: "panicky", Title: "t", Run: func(ctx *Context) (*Result, error) {
		panic("sim blew up")
	}}}
	ctx := NewContext(io.Discard)
	ctx.Jobs = 4
	_, err := runExperiments(ctx, list)
	if err == nil || !strings.Contains(err.Error(), "sim blew up") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// runShards runs one experiment whose body is Parallel(n, fn) through the
// engine at the given job count.
func runShards(t *testing.T, jobs, n int, fn func(i int, src sim.MachineSource)) {
	t.Helper()
	ctx := NewContext(io.Discard)
	ctx.Jobs = jobs
	e := Experiment{ID: "shards", Title: "t", Run: func(ctx *Context) (*Result, error) {
		ctx.Parallel(n, fn)
		return &Result{}, nil
	}}
	if _, err := runExperiments(ctx, []Experiment{e}); err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
}

// TestParallelRunsEveryShardOnce counts shard executions under a
// saturated and an idle pool.
func TestParallelRunsEveryShardOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		const n = 100
		var counts [n]atomic.Int64
		runShards(t, jobs, n, func(i int, _ sim.MachineSource) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("jobs=%d: shard %d ran %d times", jobs, i, c)
			}
		}
	}
}

// TestParallelUsesFreeWorkers proves Parallel hands shards to free engine
// workers: at Jobs=2, shard 0 can wait for shard 1 to start only if the
// two run at once.
func TestParallelUsesFreeWorkers(t *testing.T) {
	started1 := make(chan struct{})
	runShards(t, 2, 2, func(i int, _ sim.MachineSource) {
		if i == 1 {
			close(started1)
			return
		}
		select {
		case <-started1:
		case <-time.After(5 * time.Second):
			t.Errorf("shard 1 did not start while shard 0 was running")
		}
	})
}

// peakGauge tracks how many bodies run at once and the highest count seen.
type peakGauge struct{ cur, peak atomic.Int64 }

// hold counts one body running for d.
func (g *peakGauge) hold(d time.Duration) {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(d)
	g.cur.Add(-1)
}

// TestEngineWorkerBudget pins the one budget of Jobs workers across
// nesting: experiments and the shards inside them never run more bodies at
// once than Jobs, a lone experiment's Parallel soaks up the whole budget,
// and so does the last running experiment once the others are done.
// Bodies sleep, so the counts do not depend on the host's CPUs.
func TestEngineWorkerBudget(t *testing.T) {
	const d = 30 * time.Millisecond
	sharded := func(g *peakGauge, id string, delay time.Duration, shards int) Experiment {
		return Experiment{ID: id, Title: "t", Run: func(ctx *Context) (*Result, error) {
			time.Sleep(delay)
			ctx.Parallel(shards, func(int, sim.MachineSource) { g.hold(d) })
			return &Result{}, nil
		}}
	}
	for _, tc := range []struct {
		name                 string
		jobs                 int
		list                 func(g *peakGauge) []Experiment
		wantPeak, wantAtMost int64
	}{
		{"one experiment, jobs=3", 3, func(g *peakGauge) []Experiment {
			return []Experiment{sharded(g, "a", 0, 6)}
		}, 3, 3},
		{"five experiments, jobs=3", 3, func(g *peakGauge) []Experiment {
			list := make([]Experiment, 5)
			for i := range list {
				list[i] = sharded(g, fmt.Sprintf("e%d", i), 0, 4)
			}
			return list
		}, 0, 3},
		{"five experiments, jobs=1", 1, func(g *peakGauge) []Experiment {
			list := make([]Experiment, 5)
			for i := range list {
				list[i] = sharded(g, fmt.Sprintf("e%d", i), 0, 4)
			}
			return list
		}, 1, 1},
		// The two experiments start together on two goroutines; the
		// second fans out only after the first is done.
		{"tail experiment, jobs=2", 2, func(g *peakGauge) []Experiment {
			return []Experiment{sharded(g, "short", d, 0), sharded(g, "tail", 3*d, 4)}
		}, 2, 2},
	} {
		var g peakGauge
		ctx := NewContext(io.Discard)
		ctx.Jobs = tc.jobs
		if _, err := runExperiments(ctx, tc.list(&g)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		peak := g.peak.Load()
		if peak > tc.wantAtMost {
			t.Errorf("%s: %d bodies ran at once, budget is %d", tc.name, peak, tc.wantAtMost)
		}
		if tc.wantPeak != 0 && peak != tc.wantPeak {
			t.Errorf("%s: peak of %d concurrent bodies, want %d", tc.name, peak, tc.wantPeak)
		}
	}
}

// TestWriteMetricsJSONCanonical asserts the JSON export is byte-stable
// across encodings of the same results.
func TestWriteMetricsJSONCanonical(t *testing.T) {
	ctx := NewContext(io.Discard)
	ctx.Jobs = 4
	res, err := runExperiments(ctx, fakeSuite(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteMetricsJSON(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&b, res); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSON export is not canonical")
	}
	if !strings.Contains(a.String(), "fake00") {
		t.Fatalf("export missing experiments: %s", a.String())
	}
}
