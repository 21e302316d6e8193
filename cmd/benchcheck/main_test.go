package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestEvaluateAllocCeiling: allocations get 1% over the pinned ceiling,
// rounded up, independent of the ns/op tolerance; a 0-alloc gate is exact.
func TestEvaluateAllocCeiling(t *testing.T) {
	g := gate{Bench: "BenchmarkX", NsPerOp: 100, AllocsPerOp: 8467, CalNs: 1}
	zero := gate{Bench: "BenchmarkZero", NsPerOp: 100, CalNs: 1}
	for _, tc := range []struct {
		name   string
		g      gate
		allocs int64
		want   string
	}{
		{"at ceiling", g, 8467, "ok"},
		{"at +1%", g, 8467 + 85, "ok"}, // 84.67 rounds up to 85
		{"one over +1%", g, 8467 + 86, "FAIL"},
		{"zero-alloc gate, one alloc", zero, 1, "FAIL"},
	} {
		row := evaluate(tc.g, result{ns: 100, allocs: tc.allocs, cal: 1}, 20, 1)
		if row.status != tc.want {
			t.Errorf("%s: %d allocs against ceiling %d: status %q, want %q",
				tc.name, tc.allocs, tc.g.AllocsPerOp, row.status, tc.want)
		}
	}
}

// TestBenchFileKeepsEveryKey: -update rewrites BENCH.json through benchFile,
// so every top-level section the committed file carries must survive the
// round trip.
func TestBenchFileKeepsEveryKey(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&bf)
	if err != nil {
		t.Fatal(err)
	}
	var before, after map[string]json.RawMessage
	if err := json.Unmarshal(raw, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &after); err != nil {
		t.Fatal(err)
	}
	for key := range before {
		if _, ok := after[key]; !ok {
			t.Errorf("BENCH.json section %q is dropped by benchFile", key)
		}
	}
}
