package experiments

import "leakyway/internal/scenario"

// The builtin declarative scenarios. Six experiments — fig6, fig7, fig8,
// faults, ablate-lanes and noise — are not hand-coded: each registers as
// FromSpec(spec) over one of the Spec literals below, and the shipped
// templates/ pack is the Marshal of exactly these literals. That makes the
// equivalence guarantee structural: a template run and the registered
// experiment execute the same interpreter on a deeply-equal Spec under the
// same engine-derived seed, so their reports and metrics are
// byte-identical for any -jobs value (template_test.go pins it).

func init() {
	for _, s := range BuiltinSpecs() {
		register(FromSpec(s))
	}
}

// pointer-literal helpers for sparse override sections.
func i64p(v int64) *int64 { return &v }

// BuiltinSpecs returns the declarative scenarios that ship as templates/,
// in pack order. The slice and its Specs are freshly built on every call,
// so callers may mutate them freely.
func BuiltinSpecs() []*scenario.Spec {
	return []*scenario.Spec{
		specFig6(),
		specFig7(),
		specFig8(),
		specFaults(),
		specLanes(),
		specNoise(),
	}
}

// BuiltinSpec returns one builtin scenario by ID.
func BuiltinSpec(id string) (*scenario.Spec, bool) {
	for _, s := range BuiltinSpecs() {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

func specFig6() *scenario.Spec {
	return &scenario.Spec{
		ID:    "fig6",
		Title: "Figure 6 — LLC set states during NTP+NTP transmission",
		Paper: "dr is installed as the eviction candidate; a sent '1' replaces it with ds; the receiver's timed prefetch reads the bit and resets the set",
		Kind:  "statewalk",
		StateWalk: &scenario.StateWalkSpec{
			Message:          "10",
			CalibrateSamples: 48,
			ReceiverReady:    30_000,
			PhaseStep:        5_000,
		},
		Assert: []scenario.Assertion{
			{Metric: "state_walk_correct", Op: "eq", Value: 1},
		},
	}
}

func specFig7() *scenario.Spec {
	return &scenario.Spec{
		ID:    "fig7",
		Title: "Figure 7 — two-set pipelined NTP+NTP schedule",
		Paper: "sender and receiver alternate sets; the receiver always detects the bit sent one iteration earlier",
		Kind:  "pipeline",
		// The fault framework is absent and the message is short; disable
		// the background noise daemon so the schedule renders cleanly.
		Channel:  &scenario.ChannelSpec{NoisePeriod: i64p(0)},
		Pipeline: &scenario.PipelineSpec{Message: "10110100"},
		Assert: []scenario.Assertion{
			{Metric: "pipeline_errors", Op: "eq", Value: 0},
		},
	}
}

func specFig8() *scenario.Spec {
	return &scenario.Spec{
		ID:    "fig8",
		Title: "Figure 8 — channel capacity and bit error rate vs raw transmission rate",
		Paper: "BER stays low until a knee, then capacity collapses; NTP+NTP peaks ≈302/275 KB/s (SKL/KBL), Prime+Probe ≈86/81 KB/s",
		Kind:  "sweep",
		Sweep: &scenario.SweepSpec{
			Bits: 2000,
			Channels: []scenario.SweepChannel{
				{Channel: "ntpntp", Intervals: []int64{900, 1100, 1300, 1500, 1800, 2200, 2800, 3600, 5000, 8000}},
				{Channel: "primeprobe", Intervals: []int64{4000, 5000, 6000, 6500, 7000, 8000, 9000, 11000, 14000, 20000}},
			},
		},
		Extract: []scenario.Extractor{
			{Name: "skl_ntp_peak", Type: "metric", Metric: "skylake/ntpntp_peak_kbps"},
			{Name: "skl_pp_peak", Type: "metric", Metric: "skylake/primeprobe_peak_kbps"},
			{Name: "skl_peak_ratio", Type: "regex",
				Pattern: `peaks on Skylake[^\n]*\((\d+\.\d)x\)`},
		},
		Assert: []scenario.Assertion{
			{Extract: "skl_ntp_peak", Op: "gt", Value: 0},
			{Extract: "skl_pp_peak", Op: "gt", Value: 0},
			{Extract: "skl_peak_ratio", Op: "gt", Value: 1},
		},
	}
}

func specFaults() *scenario.Spec {
	return &scenario.Spec{
		ID:    "faults",
		Title: "Extension — fault injection: raw vs Hamming vs ARQ transport",
		Paper: "Section IV-B3 lists preemption, noise and timing degradation as reliability threats; the ARQ transport must deliver through all of them",
		Kind:  "faults",
		Channel: &scenario.ChannelSpec{
			Interval:    i64p(2000),
			NoisePeriod: i64p(0), // the fault framework injects the interference
		},
		Transport: &scenario.TransportSpec{
			Channel: &scenario.ChannelSpec{NoisePeriod: i64p(0)},
		},
		Faults: &scenario.FaultsSpec{
			RawBits:         1200,
			ARQBits:         128,
			InterleaveDepth: 56,
			Scenarios: []scenario.FaultScenario{
				{Key: "none"},
				{Key: "preempt", Faults: []scenario.FaultSpec{
					{Type: "preemption", Count: 6, MinDur: 20_000, MaxDur: 60_000},
				}},
				{Key: "pollute", Faults: []scenario.FaultSpec{
					{Type: "pollution", Bursts: 8, Walks: 4, Gap: 60},
				}},
				// A slow receiver clock: strong enough that the slot grids
				// slide a full slot apart within even a quick-mode raw
				// transmission (~340k cycles).
				{Key: "drift", Faults: []scenario.FaultSpec{
					{Type: "clock-drift", PPM: -8000},
				}},
				{Key: "spikes", Faults: []scenario.FaultSpec{
					{Type: "timer-spikes", Count: 6, Dur: 60_000, Extra: 400},
				}},
				{Key: "migrate", Faults: []scenario.FaultSpec{
					{Type: "migration", Cost: 60_000},
				}},
				{Key: "all", Faults: []scenario.FaultSpec{
					{Type: "preemption", Count: 3, MinDur: 15_000, MaxDur: 40_000},
					{Type: "pollution", Bursts: 4, Walks: 3, Gap: 60},
					{Type: "clock-drift", PPM: 800},
					{Type: "timer-spikes", Count: 3, Dur: 40_000, Extra: 400},
				}},
			},
		},
		Assert: []scenario.Assertion{
			{Metric: "faults_none_arq_delivered", Op: "eq", Value: 1},
			{Metric: "faults_all_arq_delivered", Op: "eq", Value: 1},
			{Metric: "faults_none_raw_ber", Op: "le", Value: 0.01},
		},
	}
}

func specLanes() *scenario.Spec {
	return &scenario.Spec{
		ID:    "ablate-lanes",
		Title: "Extension — multi-lane NTP+NTP bandwidth scaling",
		Paper: "the paper uses one two-set lane; extra lanes multiply bits per iteration until receiver probing saturates the interval",
		Kind:  "lanes",
		// Each extra lane adds one timed prefetch (~300 cycles worst case)
		// of receiver work per iteration; sweep a few interval offsets
		// around the expected knee and keep the best.
		Channel: &scenario.ChannelSpec{NoisePeriod: i64p(0)},
		Lanes: &scenario.LanesSpec{
			Bits:       2000,
			LaneCounts: []int{1, 2, 4, 8},
			Offsets:    []int64{120, 400, 900},
			LaneCost:   330,
		},
		Assert: []scenario.Assertion{
			{Metric: "lanes1_capacity", Op: "gt", Value: 0},
			{Metric: "lanes8_capacity", Op: "gt", Value: 0},
		},
	}
}

func specNoise() *scenario.Spec {
	return &scenario.Spec{
		ID:    "noise",
		Title: "Extension — channel reliability vs co-tenant noise (Section IV-B3)",
		Paper: "other processes touching the target sets flip bits; the paper prescribes more reliable encodings",
		Kind:  "noise",
		Channel: &scenario.ChannelSpec{
			Interval: i64p(1600),
		},
		Noise: &scenario.NoiseSpec{
			Bits:            2000,
			Periods:         []int64{0, 400_000, 100_000, 40_000, 15_000},
			InterleaveDepth: 56,
		},
		Assert: []scenario.Assertion{
			{Metric: "noise0_raw_ber", Op: "le", Value: 0.01},
			{Metric: "noise0_hamming_residual", Op: "eq", Value: 0},
		},
	}
}
