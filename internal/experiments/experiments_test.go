package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// quickCtx returns a quick-mode context capturing output.
func quickCtx() (*Context, *bytes.Buffer) {
	var buf bytes.Buffer
	ctx := NewContext(&buf)
	ctx.Quick = true
	return ctx, &buf
}

func metric(t *testing.T, r *Result, name string) float64 {
	t.Helper()
	v, ok := r.Metrics[name]
	if !ok {
		t.Fatalf("metric %q missing (have %v)", name, sortedKeys(r.Metrics))
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "table2",
		"fig11", "fnrate", "fig9", "fig10", "fig12", "table3",
		"fig13", "counter", "classic", "defense", "noninclusive", "ablate-lanes", "selfsync", "pollution", "noise",
		"resolution", "stealth", "evset-algos",
		"ablate-sets", "ablate-hwpf", "ablate-policy",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
	if _, err := RunOne(quickCtxOnly(), "nope"); err == nil {
		t.Error("RunOne accepted a nonexistent experiment")
	}
}

func quickCtxOnly() *Context {
	ctx, _ := quickCtx()
	return ctx
}

func TestFig1(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "eviction_order_matches_paper") != 1 {
		t.Fatal("Figure 1 walk does not evict l0 then l1")
	}
}

func TestFig2(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if v := metric(t, r, "min_prefetched_reload_cycles"); v < 200 {
		t.Fatalf("prefetched line not always evicted: min reload %.0f cycles, want >200", v)
	}
	if v := metric(t, r, "control_fast_positions"); v < 14 {
		t.Fatalf("control survived at only %.0f/16 positions", v)
	}
}

func TestFig3(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "order_match_fraction") != 1 {
		t.Fatal("insertion-policy eviction order did not match l1..l15 in every run")
	}
}

func TestFig4(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig4")
	if err != nil {
		t.Fatal(err)
	}
	if v := metric(t, r, "stock_dram_fraction"); v < 0.99 {
		t.Fatalf("stock policy: line evicted in only %.1f%% of trials, want ~100%%", 100*v)
	}
	if v := metric(t, r, "ablation_dram_fraction"); v > 0.01 {
		t.Fatalf("ablation: line evicted in %.1f%% of trials, want ~0%%", 100*v)
	}
}

func TestFig5(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	l1 := metric(t, r, "l1_mean")
	llc := metric(t, r, "llc_mean")
	mem := metric(t, r, "dram_mean")
	if !(l1 < llc && llc < mem) {
		t.Fatalf("timing tiers out of order: %f %f %f", l1, llc, mem)
	}
	if l1 < 55 || l1 > 85 {
		t.Errorf("L1 tier %.0f, want ≈70", l1)
	}
	if llc < 85 || llc > 110 {
		t.Errorf("LLC tier %.0f, want 90-100", llc)
	}
	if mem < 200 {
		t.Errorf("DRAM tier %.0f, want >200", mem)
	}
}

func TestFig6And7(t *testing.T) {
	ctx, out := quickCtx()
	r, err := RunOne(ctx, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "state_walk_correct") != 1 {
		t.Fatal("NTP+NTP state walk decoded wrong bits")
	}
	if !strings.Contains(out.String(), "dr:3") {
		t.Error("trace does not show dr installed at age 3")
	}
	r, err = RunOne(ctx, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "pipeline_errors") != 0 {
		t.Fatal("two-set pipeline dropped bits")
	}
}

func TestTable2Shape(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "table2")
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"skylake", "kabylake"} {
		ntp := metric(t, r, plat+"/ntpntp_peak_kbps")
		pp := metric(t, r, plat+"/primeprobe_peak_kbps")
		if ntp < 2*pp {
			t.Errorf("%s: NTP+NTP %.0f KB/s not >2x Prime+Probe %.0f KB/s", plat, ntp, pp)
		}
		if ntp < 150 || ntp > 450 {
			t.Errorf("%s: NTP+NTP peak %.0f KB/s outside the plausible band", plat, ntp)
		}
	}
}

func TestFig11AndFNRate(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig11")
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"skylake", "kabylake"} {
		if v := metric(t, r, plat+"/prep_speedup"); v < 1.5 {
			t.Errorf("%s: prep speedup %.2fx, want >1.5x", plat, v)
		}
	}
	r, err = RunOne(ctx, "fnrate")
	if err != nil {
		t.Fatal(err)
	}
	ps := metric(t, r, "skylake/primescope_fn_rate")
	pps := metric(t, r, "skylake/prefetchscope_fn_rate")
	if pps > 0.05 {
		t.Errorf("Prime+Prefetch+Scope FN %.1f%%, want <5%%", 100*pps)
	}
	if ps < 0.3 {
		t.Errorf("Prime+Scope FN %.1f%%, want large (paper ≈50%%)", 100*ps)
	}
}

func TestFig9And10(t *testing.T) {
	ctx, _ := quickCtx()
	for _, id := range []string{"fig9", "fig10"} {
		r, err := RunOne(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if metric(t, r, "state_walk_correct") != 1 {
			t.Fatalf("%s: wrong verdicts in the state walk", id)
		}
	}
}

func TestFig12Ordering(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "fig12")
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"skylake", "kabylake"} {
		rr := metric(t, r, plat+"/reload_refresh_mean")
		v1 := metric(t, r, plat+"/prefetch_refresh_v1_mean")
		v2 := metric(t, r, plat+"/prefetch_refresh_v2_mean")
		if !(rr > v1 && v1 > v2) {
			t.Errorf("%s: ordering broken: %f %f %f", plat, rr, v1, v2)
		}
	}
}

func TestTable3Counts(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "table3")
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"variant0/flushes": 2, "variant0/dram": 2, "variant0/llc": 14,
		"variant1/flushes": 2, "variant1/dram": 2, "variant1/llc": 0,
		"variant2/flushes": 1, "variant2/dram": 1, "variant2/llc": 0,
	}
	for name, want := range checks {
		if got := metric(t, r, name); got != want {
			t.Errorf("%s = %.0f, want %.0f", name, got, want)
		}
	}
}

// TestFig13 also runs the seeds whose Algorithm 2 build once ran out of
// candidates: on a cold LLC the first ~LLCWays congruent lines only fill
// invalid ways, so a pool sized by the desired set length alone was too
// small.
func TestFig13(t *testing.T) {
	for _, seed := range []int64{42, 16, 22, 28, 31, 32} {
		ctx, _ := quickCtx()
		ctx.Seed = seed
		r, err := RunOne(ctx, "fig13")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, plat := range []string{"skylake", "kabylake"} {
			if v := metric(t, r, plat+"/time_speedup"); v < 2 {
				t.Errorf("seed %d, %s: construction speedup %.1fx, want well above 1", seed, plat, v)
			}
		}
	}
}

func TestCounter(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "counter")
	if err != nil {
		t.Fatal(err)
	}
	intel := metric(t, r, "intel_ratio")
	cm := metric(t, r, "countermeasure_ratio")
	if intel < 4 {
		t.Errorf("Intel-policy improvement %.2fx, want large (paper 7.25x)", intel)
	}
	if cm > 1.6 {
		t.Errorf("countermeasure improvement %.2fx, want ≈1x (paper 1.26x)", cm)
	}
}

func TestAblations(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "ablate-sets")
	if err != nil {
		t.Fatal(err)
	}
	if two, bad := metric(t, r, "two_set_peak"), metric(t, r, "one_set_inflight_peak"); two < 10*bad+50 {
		t.Errorf("in-flight probing should collapse capacity: two-set %.1f vs %.1f", two, bad)
	}
	r, err = RunOne(ctx, "ablate-policy")
	if err != nil {
		t.Fatal(err)
	}
	if stock, cm := metric(t, r, "stock_capacity"), metric(t, r, "countermeasure_capacity"); cm > stock/5 {
		t.Errorf("countermeasure should break the channel: stock %.1f vs cm %.1f", stock, cm)
	}
	r, err = RunOne(ctx, "ablate-hwpf")
	if err != nil {
		t.Fatal(err)
	}
	if on := metric(t, r, "hwpf_on_ber"); on > 0.05 {
		t.Errorf("hardware prefetchers should not disturb the channel: BER %.2f%%", 100*on)
	}
}

func TestClassicExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "classic")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "flush_flush_target_accesses") != 0 {
		t.Error("Flush+Flush should never access the shared line")
	}
	for _, k := range []string{"flush_reload_accuracy", "flush_flush_accuracy", "evict_reload_accuracy"} {
		if metric(t, r, k) < 0.97 {
			t.Errorf("%s = %.2f, want ≈1", k, r.Metrics[k])
		}
	}
	if metric(t, r, "evict_reload_mean") < 3*metric(t, r, "flush_reload_mean") {
		t.Error("Evict+Reload should be much slower than Flush+Reload")
	}
}

func TestEvsetAlgosExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "evset-algos")
	if err != nil {
		t.Fatal(err)
	}
	pref := metric(t, r, "prefetch_refs")
	base := metric(t, r, "baseline_refs")
	huge := metric(t, r, "hugepage_refs")
	if base < 3*pref {
		t.Errorf("baseline (%.0f refs) should dwarf Algorithm 2 (%.0f)", base, pref)
	}
	if huge > pref/5 {
		t.Errorf("huge pages (%.0f refs) should dwarf-reduce Algorithm 2's cost (%.0f)", huge, pref)
	}
	if gt := metric(t, r, "grouptest_congruent"); gt < 16 {
		t.Errorf("group testing superset holds %.0f congruent lines, want 16", gt)
	}
}

func TestResolutionExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "resolution")
	if err != nil {
		t.Fatal(err)
	}
	scope := metric(t, r, "scope_median_delay")
	probe := metric(t, r, "probe_median_delay")
	if scope > 300 {
		t.Errorf("scope median delay %.0f cycles; paper-class resolution is ≈100", scope)
	}
	if probe < 5*scope {
		t.Errorf("probing (%.0f) should be far coarser than scoping (%.0f)", probe, scope)
	}
}

func TestStealthExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "stealth")
	if err != nil {
		t.Fatal(err)
	}
	if fr := metric(t, r, "flush_reload_victim_missfrac"); fr < 0.95 {
		t.Errorf("Flush+Reload victim miss fraction %.2f, want ≈1", fr)
	}
	for _, k := range []string{"reload_refresh_victim_missfrac", "prefetch_refresh_victim_missfrac"} {
		if v := metric(t, r, k); v > 0.05 {
			t.Errorf("%s = %.2f, want ≈0 (the stealth claim)", k, v)
		}
	}
}

func TestNoiseExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "noise")
	if err != nil {
		t.Fatal(err)
	}
	quietRaw := metric(t, r, "noise0_raw_ber")
	heavyRaw := metric(t, r, "noise40000_raw_ber")
	if heavyRaw <= quietRaw {
		t.Errorf("heavier noise should raise raw BER: %.3f vs %.3f", heavyRaw, quietRaw)
	}
	if ham := metric(t, r, "noise400000_hamming_residual"); ham > metric(t, r, "noise400000_raw_ber") {
		t.Errorf("Hamming should not be worse than raw under sparse noise")
	}
}

func TestPollutionExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "pollution")
	if err != nil {
		t.Fatal(err)
	}
	stock := metric(t, r, "stock_worker_hitrate")
	cm := metric(t, r, "countermeasure_worker_hitrate")
	if stock < 0.99 {
		t.Errorf("stock policy should protect the worker: hit rate %.1f%%", 100*stock)
	}
	if cm > stock-0.02 {
		t.Errorf("countermeasure should cost the worker hits: %.1f%% vs %.1f%%", 100*cm, 100*stock)
	}
}

func TestSelfSyncExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "selfsync")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "quiet_ber") > 0.02 {
		t.Errorf("quiet self-sync BER %.2f%%, want ≈0", 100*r.Metrics["quiet_ber"])
	}
}

func TestLanesScaling(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "ablate-lanes")
	if err != nil {
		t.Fatal(err)
	}
	one := metric(t, r, "lanes1_capacity")
	four := metric(t, r, "lanes4_capacity")
	if four < 1.5*one {
		t.Errorf("4 lanes (%.1f) should clearly beat 1 lane (%.1f)", four, one)
	}
}

func TestNonInclusiveExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "noninclusive")
	if err != nil {
		t.Fatal(err)
	}
	inc := metric(t, r, "inclusive_capacity")
	non := metric(t, r, "noninclusive_capacity")
	if non > inc/10 {
		t.Errorf("non-inclusive LLC should kill the channel: %.1f vs %.1f KB/s", non, inc)
	}
	if plain := metric(t, r, "dir_plain_capacity"); plain > inc/10 {
		t.Errorf("plain directory should not revive the channel: %.1f KB/s", plain)
	}
	if dir := metric(t, r, "dir_ntp_capacity"); dir < inc*0.8 {
		t.Errorf("the Section VI-B conjecture should revive the channel: %.1f vs %.1f KB/s", dir, inc)
	}
}

func TestDefenseExperiment(t *testing.T) {
	ctx, _ := quickCtx()
	r, err := RunOne(ctx, "defense")
	if err != nil {
		t.Fatal(err)
	}
	stock := metric(t, r, "stock_capacity")
	if stock < 100 {
		t.Fatalf("undefended capacity %.1f too low", stock)
	}
	for _, k := range []string{"partition_capacity", "hardened_capacity"} {
		if v := metric(t, r, k); v > stock/10 {
			t.Errorf("%s = %.1f KB/s; the defense should break the channel", k, v)
		}
	}
}

func TestTable1(t *testing.T) {
	ctx, out := quickCtx()
	r, err := RunOne(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, r, "skylake/llc_ways") != 16 {
		t.Error("Skylake LLC associativity wrong")
	}
	if !strings.Contains(out.String(), "Kaby Lake") {
		t.Error("Kaby Lake missing from Table I output")
	}
}
