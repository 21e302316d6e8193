package experiments

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics snapshot")

const goldenPath = "testdata/golden_metrics_seed42.json"

// Golden tolerances, as documented in EXPERIMENTS.md: a metric passes if
// it is within 35% relative or 0.05 absolute of the snapshot, whichever
// is looser. The suite is bit-deterministic for a fixed seed, so drift
// only appears when an algorithm or its seed derivation changes — the
// tolerance is there to let deliberate, small changes through while
// catching a broken simulator or channel.
const (
	goldenRelTol = 0.35
	goldenAbsTol = 0.05
)

// TestGoldenMetrics regression-checks the quick-mode full suite at seed
// 42 against the committed snapshot. Regenerate with:
//
//	go test ./internal/experiments/ -run TestGoldenMetrics -update
func TestGoldenMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is not short")
	}
	ctx := NewContext(io.Discard)
	ctx.Quick = true
	ctx.Seed = 42
	results, err := RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := MetricsMap(results)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := WriteMetricsJSON(f, results); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	for _, id := range sortedKeys(want) {
		gm, ok := got[id]
		if !ok {
			t.Errorf("%s: experiment present in golden but did not run", id)
			continue
		}
		for _, k := range sortedKeys(want[id]) {
			w := want[id][k]
			g, ok := gm[k]
			if !ok {
				t.Errorf("%s/%s: metric disappeared", id, k)
				continue
			}
			if diff := math.Abs(g - w); diff > goldenRelTol*math.Abs(w) && diff > goldenAbsTol {
				t.Errorf("%s/%s = %v, golden %v (Δ=%.4g exceeds %d%% rel and %g abs)",
					id, k, g, w, diff, int(100*goldenRelTol), goldenAbsTol)
			}
		}
	}
	for _, id := range sortedKeys(got) {
		if _, ok := want[id]; !ok {
			t.Logf("note: experiment %s has no golden entry (run -update to include it)", id)
		}
	}
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
