package attack

import (
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/stats"
)

func TestScopeVariantStrings(t *testing.T) {
	if PrimeScope.String() != "Prime+Scope" || PrimePrefetchScope.String() != "Prime+Prefetch+Scope" {
		t.Fatal("bad variant names")
	}
}

func TestPrimePrefetchScopeLowFalseNegatives(t *testing.T) {
	r := RunScope(fresh(platform.Skylake(), 7), PrimePrefetchScope, ScopeConfig{Iterations: 300})
	if r.FalseNegativeRate > 0.05 {
		t.Fatalf("Prime+Prefetch+Scope FN = %.1f%%, paper reports <2%%", 100*r.FalseNegativeRate)
	}
	if r.PrepRefs >= 192 {
		t.Fatalf("prefetch-variant prep uses %d refs; must be far below Listing 1's 192", r.PrepRefs)
	}
	mean := stats.Mean(r.PrepLatencies)
	if mean < 700 || mean > 1600 {
		t.Fatalf("prep latency mean = %.0f, want ≈1000 (paper: 1043)", mean)
	}
}

func TestPrimeScopeMissesFrequentEvents(t *testing.T) {
	r := RunScope(fresh(platform.Skylake(), 7), PrimeScope, ScopeConfig{Iterations: 300})
	if r.FalseNegativeRate < 0.3 {
		t.Fatalf("Prime+Scope FN = %.1f%%; with a 1.5K-cycle victim it must miss a large fraction", 100*r.FalseNegativeRate)
	}
	if r.PrepRefs != 192 {
		t.Fatalf("Prime+Scope prep refs = %d, want 192 (Listing 1)", r.PrepRefs)
	}
	if len(r.Detections) == 0 {
		t.Fatal("Prime+Scope detected nothing at all")
	}
}

func TestScopePrepComparison(t *testing.T) {
	// Figure 11 headline: the prefetch variant's preparation is much
	// faster, on both platforms.
	for _, p := range platform.All() {
		ps := RunScope(fresh(p, 11), PrimeScope, ScopeConfig{Iterations: 200})
		pps := RunScope(fresh(p, 11), PrimePrefetchScope, ScopeConfig{Iterations: 200})
		mps, mpps := stats.Mean(ps.PrepLatencies), stats.Mean(pps.PrepLatencies)
		if mpps >= mps {
			t.Fatalf("%s: prefetch prep (%.0f) not faster than Prime+Scope prep (%.0f)", p.Name, mpps, mps)
		}
		if ratio := mps / mpps; ratio < 1.5 {
			t.Fatalf("%s: prep speedup %.2fx, want >1.5x (paper ≈1.8x)", p.Name, ratio)
		}
	}
}

func TestFalseNegativeRateMatching(t *testing.T) {
	period := int64(100)
	cases := []struct {
		name       string
		accesses   []int64
		detections []int64
		horizon    int64
		want       float64
	}{
		{"all detected", []int64{100, 200, 300}, []int64{150, 250, 350}, 1000, 0},
		{"none detected", []int64{100, 200}, []int64{}, 1000, 1},
		{"half detected", []int64{100, 200}, []int64{150}, 1000, 0.5},
		{"late detection not matched", []int64{100}, []int64{450}, 1000, 1},
		{"detection cannot match two", []int64{100, 110}, []int64{150}, 1000, 0.5},
		{"post-horizon access ignored", []int64{100, 2000}, []int64{150}, 1000, 0},
		{"empty accesses", nil, []int64{100}, 1000, 0},
	}
	for _, c := range cases {
		got := falseNegativeRate(c.accesses, c.detections, period, c.horizon)
		if got != c.want {
			t.Errorf("%s: FN = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRefreshVariantsAccurate(t *testing.T) {
	for _, v := range []RefreshVariant{ReloadRefresh, PrefetchRefreshV1, PrefetchRefreshV2} {
		r := RunRefresh(fresh(platform.Skylake(), 7), v, RefreshConfig{Iterations: 400}, 7)
		if r.Accuracy < 0.97 {
			t.Errorf("%v accuracy = %.1f%%, want ≈100%%", v, 100*r.Accuracy)
		}
	}
}

func TestRefreshLatencyOrdering(t *testing.T) {
	// Figure 12: Reload+Refresh > Prefetch+Refresh v1 > v2 on both
	// platforms.
	for _, p := range platform.All() {
		rr := stats.Mean(RunRefresh(fresh(p, 5), ReloadRefresh, RefreshConfig{Iterations: 300}, 5).IterLatencies)
		v1 := stats.Mean(RunRefresh(fresh(p, 5), PrefetchRefreshV1, RefreshConfig{Iterations: 300}, 5).IterLatencies)
		v2 := stats.Mean(RunRefresh(fresh(p, 5), PrefetchRefreshV2, RefreshConfig{Iterations: 300}, 5).IterLatencies)
		if !(rr > v1 && v1 > v2) {
			t.Fatalf("%s: latency ordering broken: R+R=%.0f v1=%.0f v2=%.0f", p.Name, rr, v1, v2)
		}
	}
}

func TestRevertOpsTable3(t *testing.T) {
	w := 16
	if got := revertOps(ReloadRefresh, w); got != (RevertOps{2, 2, 14}) {
		t.Errorf("R+R revert = %+v", got)
	}
	if got := revertOps(PrefetchRefreshV1, w); got != (RevertOps{2, 2, 0}) {
		t.Errorf("v1 revert = %+v", got)
	}
	if got := revertOps(PrefetchRefreshV2, w); got != (RevertOps{1, 1, 0}) {
		t.Errorf("v2 revert = %+v", got)
	}
}

func TestRefreshVariantStrings(t *testing.T) {
	want := map[RefreshVariant]string{
		ReloadRefresh:     "Reload+Refresh",
		PrefetchRefreshV1: "Prefetch+Refresh v1",
		PrefetchRefreshV2: "Prefetch+Refresh v2",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	a, b := newXorshift(42), newXorshift(42)
	for i := 0; i < 10; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
	if newXorshift(0).next() == 0 {
		t.Fatal("zero seed not remapped")
	}
}

func TestScopeDeterministic(t *testing.T) {
	a := RunScope(fresh(platform.Skylake(), 3), PrimePrefetchScope, ScopeConfig{Iterations: 50})
	b := RunScope(fresh(platform.Skylake(), 3), PrimePrefetchScope, ScopeConfig{Iterations: 50})
	if len(a.Detections) != len(b.Detections) || a.FalseNegativeRate != b.FalseNegativeRate {
		t.Fatal("RunScope not deterministic for equal seeds")
	}
	for i := range a.Detections {
		if a.Detections[i] != b.Detections[i] {
			t.Fatal("detection times diverge")
		}
	}
}
