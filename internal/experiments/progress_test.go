package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"leakyway/internal/telemetry"
)

// progressContext builds a quick single-experiment context with telemetry
// attached: a Progress tracker and no tracer, the exact shape the daemon
// runs untraced jobs with.
func progressContext(out *bytes.Buffer, jobs int) (*Context, *telemetry.Progress) {
	ctx := NewContext(out)
	ctx.Quick = true
	ctx.Jobs = jobs
	ctx.Progress = telemetry.NewProgress()
	return ctx, ctx.Progress
}

// TestProgressCheckpointsPopulate runs one experiment with telemetry on
// and checks every checkpoint dimension advanced: phases and shards.
// fig8 is the pick because its platform sweep goes through Parallel, so
// the shard counters must move.
func TestProgressCheckpointsPopulate(t *testing.T) {
	var out bytes.Buffer
	ctx, prog := progressContext(&out, 2)

	if _, err := RunOne(ctx, "fig8"); err != nil {
		t.Fatal(err)
	}

	s := prog.Snapshot()
	if s.PhasesTotal != 1 || s.PhasesDone != 1 {
		t.Fatalf("phases %d/%d, want 1/1", s.PhasesDone, s.PhasesTotal)
	}
	if s.Phase != "fig8" {
		t.Fatalf("phase %q, want fig8", s.Phase)
	}
	if s.ShardsDone == 0 || s.ShardsDone != s.ShardsTotal {
		t.Fatalf("shards %d/%d: want nonzero and settled", s.ShardsDone, s.ShardsTotal)
	}
}

// TestTelemetryNeverPerturbsOutput is the determinism acceptance gate:
// report bytes and metrics must be identical with telemetry on or off,
// at any -jobs. fig6 runs its one machine in a single Parallel shard and
// fig8 fans its sweep trials out through Parallel, both with the daemon's
// wiring.
func TestTelemetryNeverPerturbsOutput(t *testing.T) {
	ids := []string{"fig6", "fig8"}
	baseline := map[string][]byte{}
	baseRes := map[string]*Result{}
	for _, id := range ids {
		var out bytes.Buffer
		base := NewContext(&out)
		base.Quick = true
		base.Jobs = 1
		res, err := RunOne(base, id)
		if err != nil {
			t.Fatal(err)
		}
		baseline[id], baseRes[id] = out.Bytes(), res
	}

	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			for _, id := range ids {
				var out bytes.Buffer
				ctx, _ := progressContext(&out, jobs)
				res, err := RunOne(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), baseline[id]) {
					t.Fatalf("%s: telemetry-on report differs from telemetry-off baseline at jobs=%d", id, jobs)
				}
				for k, v := range baseRes[id].Metrics {
					if res.Metrics[k] != v {
						t.Fatalf("%s metric %s: %v (telemetry on) != %v (off)", id, k, res.Metrics[k], v)
					}
				}
			}
		})
	}
}

// TestProgressSnapshotMidRun samples the tracker while the run is in
// flight and checks monotonicity — the property the SSE stream leans on.
func TestProgressSnapshotMidRun(t *testing.T) {
	var out bytes.Buffer
	ctx, prog := progressContext(&out, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := RunOne(ctx, "fig6"); err != nil {
			t.Error(err)
		}
	}()

	var prev telemetry.ProgressSnapshot
	for {
		select {
		case <-done:
			final := prog.Snapshot()
			if final.ShardsDone < prev.ShardsDone {
				t.Fatalf("shards went backwards: %d then %d", prev.ShardsDone, final.ShardsDone)
			}
			return
		default:
		}
		s := prog.Snapshot()
		if s.ShardsDone < prev.ShardsDone || s.PhasesDone < prev.PhasesDone {
			t.Fatalf("progress regressed: %+v after %+v", s, prev)
		}
		prev = s
	}
}
