package main

import "testing"

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
