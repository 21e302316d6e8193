package experiments

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// TestRunAllJobsMatrix is the engine's core contract: the full suite,
// run with 1, 2, 3 and 8 workers from the same seed, must produce identical
// metrics AND a byte-identical rendered report. Any scheduling leak —
// a shared RNG, an unordered buffer flush, a racy metric write — shows
// up here.
func TestRunAllJobsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite matrix is not short")
	}
	type outcome struct {
		metrics map[string]map[string]float64
		report  string
	}
	runWith := func(jobs int) outcome {
		var buf bytes.Buffer
		ctx := NewContext(&buf)
		ctx.Quick = true
		ctx.Seed = 42
		ctx.Jobs = jobs
		results, err := RunAll(ctx)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return outcome{metrics: MetricsMap(results), report: buf.String()}
	}
	ref := runWith(1)
	if len(ref.metrics) == 0 || ref.report == "" {
		t.Fatal("reference run produced nothing")
	}
	for _, jobs := range []int{2, 3, 8} {
		got := runWith(jobs)
		if !reflect.DeepEqual(ref.metrics, got.metrics) {
			for id, rm := range ref.metrics {
				for k, v := range rm {
					if gv := got.metrics[id][k]; gv != v {
						t.Errorf("jobs=%d: %s/%s = %v, want %v", jobs, id, k, gv, v)
					}
				}
			}
			t.Fatalf("jobs=%d: metrics diverge from jobs=1", jobs)
		}
		if got.report != ref.report {
			a, b := ref.report, got.report
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("jobs=%d: report is not byte-identical to jobs=1; first divergence at byte %d:\njobs=1: %q\njobs=%d: %q",
				jobs, i, a[lo:min(i+80, len(a))], jobs, b[lo:min(i+80, len(b))])
		}
	}
}

// TestExperimentsDeterministic re-runs a representative sample of
// experiments with the same seed and asserts every metric is bit-identical —
// the reproducibility contract EXPERIMENTS.md makes.
func TestExperimentsDeterministic(t *testing.T) {
	sample := []string{"fig2", "fig5", "table2", "fnrate", "fig12", "counter", "defense"}
	runOnce := func() map[string]map[string]float64 {
		ctx := NewContext(io.Discard)
		ctx.Quick = true
		ctx.Seed = 1234
		out := map[string]map[string]float64{}
		for _, id := range sample {
			r, err := RunOne(ctx, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = r.Metrics
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for id, am := range a {
		bm := b[id]
		if len(am) != len(bm) {
			t.Fatalf("%s: metric sets differ in size", id)
		}
		for k, v := range am {
			if bv, ok := bm[k]; !ok || bv != v {
				t.Errorf("%s/%s: %v vs %v — not deterministic", id, k, v, bv)
			}
		}
	}
}

// TestSeedActuallyMatters guards against accidentally ignoring the seed: a
// different seed must change at least one stochastic metric.
func TestSeedActuallyMatters(t *testing.T) {
	run := func(seed int64) float64 {
		ctx := NewContext(io.Discard)
		ctx.Quick = true
		ctx.Seed = seed
		r, err := RunOne(ctx, "fig5")
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics["dram_mean"]
	}
	if run(1) == run(99) {
		t.Error("different seeds produced identical DRAM-tier jitter; seeding is broken")
	}
}
