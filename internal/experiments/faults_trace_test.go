package experiments

import (
	"testing"

	"leakyway/internal/channel"
	"leakyway/internal/fault"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

// TestFaultLogMatchesTraceEvents replays every faults-experiment scenario
// with tracing attached and checks the two observability surfaces against
// each other: each fired fault-injector log entry must have exactly one
// pkg="fault" trace event with the same virtual timestamp, agent, kind and
// resolved scenario name — and no trace event may lack a log entry.
func TestFaultLogMatchesTraceEvents(t *testing.T) {
	cfg := platform.Skylake()
	base := channel.DefaultConfig(cfg.Name, cfg.FreqGHz)
	base.Interval = 2000
	base.NoisePeriod = 0
	const bits = 160

	spec, ok := BuiltinSpec("faults")
	if !ok {
		t.Fatal("no builtin faults scenario")
	}
	col := trace.NewCollector()
	for _, sc := range spec.Faults.Scenarios {
		if sc.Key == "none" {
			continue
		}
		seedv := SplitSeed(42, "faults", sc.Key)
		m := sim.MustNewMachine(cfg, 1<<30, seedv)
		m.SetTracer(col.Tracer(sc.Key, trace.PkgAll))
		ep, err := channel.Setup(m, 2)
		if err != nil {
			t.Fatalf("%s: %v", sc.Key, err)
		}
		log := &fault.Log{}
		tgt := fault.Target{PolluteAS: ep.NoiseAS, Pollute: ep.NoiseLines}
		tgt.Sender, tgt.Receiver = "sender", "receiver"
		tgt.SpareCore = 3
		tgt.Horizon = base.Start + int64(bits)*base.Interval
		log.Attach(m)
		sc.Compile().Inject(m, tgt, seedv, log)
		msg := channel.RandomMessage(bits, seedv)
		channel.RunNTPNTPOn(m, base, ep, msg)

		fired := log.Fired()
		if len(fired) == 0 {
			t.Errorf("%s: no fault fired within the horizon", sc.Key)
			continue
		}
		var traced []trace.Event
		for _, e := range findBuffer(t, col, sc.Key).Events() {
			if e.Pkg == "fault" {
				traced = append(traced, e)
			}
		}
		if len(traced) != len(fired) {
			t.Errorf("%s: %d fired log entries but %d fault trace events",
				sc.Key, len(fired), len(traced))
		}
		used := make([]bool, len(traced))
	outer:
		for _, f := range fired {
			for i, e := range traced {
				if used[i] || e.Time != f.At || e.Agent != f.Agent || e.Kind != f.Kind {
					continue
				}
				if e.Note != f.Scenario {
					t.Errorf("%s: event %s@%d: trace scenario %q != log scenario %q",
						sc.Key, f.Kind, f.At, e.Note, f.Scenario)
				}
				if e.Dur != f.Dur {
					t.Errorf("%s: event %s@%d: trace dur %d != log dur %d",
						sc.Key, f.Kind, f.At, e.Dur, f.Dur)
				}
				used[i] = true
				continue outer
			}
			t.Errorf("%s: fired %v has no matching trace event", sc.Key, f)
		}
	}
}

func findBuffer(t *testing.T, col *trace.Collector, label string) *trace.Buffer {
	t.Helper()
	for _, b := range col.Buffers() {
		if b.Label() == label {
			return b
		}
	}
	t.Fatalf("no trace buffer labeled %q", label)
	return nil
}

// TestFig8TraceDeterministicAcrossJobs is the tentpole's determinism
// acceptance check at the library level: a traced fig8 run must export a
// byte-identical trace for every worker count, because stream labels and
// event streams derive from seeds and names, never from scheduling.
func TestFig8TraceDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("traced fig8 run is slow")
	}
	export := func(jobs int) string {
		ctx := NewContext(nil)
		ctx.Quick = true
		ctx.Jobs = jobs
		ctx.Platforms = ctx.Platforms[:1]
		ctx.Trace = trace.NewCollector()
		ctx.TraceMask = trace.PkgChannel | trace.PkgSim | trace.PkgFault
		if _, err := RunOne(ctx, "fig8"); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var sb stringWriter
		if err := trace.WriteJSONL(&sb, ctx.Trace.Buffers()); err != nil {
			t.Fatalf("jobs=%d: export: %v", jobs, err)
		}
		if ctx.Trace.TotalEvents() == 0 {
			t.Fatalf("jobs=%d: traced run recorded no events", jobs)
		}
		return sb.String()
	}
	want := export(1)
	for _, jobs := range []int{2, 8} {
		if got := export(jobs); got != want {
			t.Fatalf("trace differs between -jobs 1 and -jobs %d (len %d vs %d)",
				jobs, len(want), len(got))
		}
	}
}

// stringWriter is a minimal io.Writer capturing into a string.
type stringWriter struct{ b []byte }

func (w *stringWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *stringWriter) String() string              { return string(w.b) }
