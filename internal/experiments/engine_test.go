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

// TestParallelRunsEveryShardOnce counts shard executions under a
// saturated and an idle pool.
func TestParallelRunsEveryShardOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		ctx := NewContext(io.Discard)
		ctx.Jobs = jobs
		var sem chan struct{}
		if jobs > 1 {
			sem = make(chan struct{}, jobs)
		}
		sub := ctx.child(ctx.Seed, io.Discard, "")
		sub.sem = sem
		const n = 100
		var counts [n]atomic.Int64
		sub.Parallel(n, func(i int, _ sim.MachineSource) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("jobs=%d: shard %d ran %d times", jobs, i, c)
			}
		}
	}
}

// TestParallelUsesFreeWorkers proves Parallel hands shards to free engine
// workers: with two free worker tokens, shard 0 can wait for shard 1 to
// start only if the two run at once.
func TestParallelUsesFreeWorkers(t *testing.T) {
	ctx := NewContext(io.Discard)
	ctx.Jobs = 2
	sub := ctx.child(ctx.Seed, io.Discard, "")
	sub.sem = make(chan struct{}, 2)
	started1 := make(chan struct{})
	sub.Parallel(2, func(i int, _ sim.MachineSource) {
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
