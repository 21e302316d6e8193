package channel

import (
	"bytes"
	"fmt"
	"testing"

	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

// freshSource builds every machine with sim.MustNewMachine: the
// construction the recycling kernel must be indistinguishable from.
type freshSource struct{}

func (freshSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *sim.Machine {
	return sim.MustNewMachine(cfg, memBytes, seed)
}

// freshTrials is the reference TrialFor: a plain loop over fresh machines.
func freshTrials(n int, body func(i int, src sim.MachineSource)) {
	for i := 0; i < n; i++ {
		body(i, freshSource{})
	}
}

// TestSweepTraceMatchesFreshMachines is the trace oracle for the arena: a
// traced sweep over one sim.Arena, which recycles the hierarchy from point
// to point, must export exactly the bytes the same sweep exports on a fresh
// machine per point.
func TestSweepTraceMatchesFreshMachines(t *testing.T) {
	p := platform.Skylake()
	base := DefaultConfig(p.Name, p.FreqGHz)
	intervals := []int64{1200, 1300, 1500, 1800, 2000, 3000, 5000, 7000, 9000}
	export := func(trials sim.TrialFor) ([]byte, SweepResult) {
		col := trace.NewCollector()
		tf := func(i int) *trace.Tracer {
			return col.Tracer(fmt.Sprintf("interval-%05d", intervals[i]), trace.PkgAll)
		}
		res := Sweep(p, RunNTPNTP, base, intervals, 48, 23, trials, tf)
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, col.Buffers()); err != nil {
			t.Fatal(err)
		}
		if col.TotalEvents() == 0 {
			t.Fatal("traced sweep recorded no events")
		}
		return buf.Bytes(), res
	}
	want, wantRes := export(freshTrials)
	got, gotRes := export(func(n int, body func(i int, src sim.MachineSource)) {
		sim.RunBatch(n, 1, sim.NewArena(), body)
	})
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		t.Fatalf("arena trace diverges from fresh machines at byte %d (len %d vs %d)", i, len(got), len(want))
	}
	for i := range wantRes.Points {
		if gotRes.Points[i] != wantRes.Points[i] {
			t.Fatalf("point %d: arena report %+v, fresh %+v", i, gotRes.Points[i], wantRes.Points[i])
		}
	}
}
