package service

import (
	"bytes"
	"testing"

	"leakyway/internal/experiments"
	"leakyway/internal/scenario"
)

// TestJobsDefaultKeysLikeOne pins the jobs field's place in the cache key:
// it no longer steers a run, but an omitted value and an explicit 1 must
// still digest identically so results stored under either stay reachable.
func TestJobsDefaultKeysLikeOne(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain()
	first, err := s.Submit(Submission{Template: tmplFor("jk"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, first.ID, StatusDone)
	again, err := s.Submit(Submission{Template: tmplFor("jk"), Seed: 5, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != first.Key || !again.CacheHit {
		t.Fatalf("jobs: 1 keyed %s (hit %v), omitted jobs keyed %s", again.Key, again.CacheHit, first.Key)
	}
}

// fig8Server starts a two-worker server running the real engine, and
// returns it with the fig8 template every job submits.
func fig8Server(t *testing.T) (*Server, *scenario.Spec, string) {
	t.Helper()
	spec, ok := experiments.BuiltinSpec("fig8")
	if !ok {
		t.Fatal("no builtin fig8 scenario")
	}
	s := newTestServer(t, func(c *Config) {
		c.Workers = 2
		c.Runner = EngineRunner
	})
	return s, spec, string(scenario.Marshal(spec))
}

// TestBorrowedWorkersByteIdentical: a lone job that borrows the idle
// worker, and two jobs that share the budget, each produce the metrics
// artifact a serial RunSpecs does for the same template and seed.
func TestBorrowedWorkersByteIdentical(t *testing.T) {
	s, spec, tmpl := fig8Server(t)
	defer s.Drain()
	c := newTestClient(t, s)
	want := func(seed int64) []byte {
		ctx := experiments.NewContext(nil)
		ctx.Seed, ctx.Quick, ctx.Jobs = seed, true, 1
		res, err := experiments.RunSpecs(ctx, []*scenario.Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := experiments.WriteMetricsJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(seeds ...int64) {
		ids := make([]string, len(seeds))
		for i, seed := range seeds {
			j, err := s.Submit(Submission{Template: tmpl, Seed: seed, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = j.ID
		}
		for i, seed := range seeds {
			waitStatus(t, s, ids[i], StatusDone)
			got, err := c.Artifact(ids[i], "metrics")
			if err != nil {
				t.Fatal(err)
			}
			if w := want(seed); !bytes.Equal(got, w) {
				t.Errorf("seed %d: daemon metrics differ from serial RunSpecs\n--- daemon ---\n%s--- serial ---\n%s", seed, got, w)
			}
		}
	}
	check(42)
	check(43, 44)
}

// TestEngineBudgetMetrics scrapes the budget's /metricsz series: a lone
// fig8 job on two workers borrows a helper, and no token is out once the
// server has drained.
func TestEngineBudgetMetrics(t *testing.T) {
	s, _, tmpl := fig8Server(t)
	c := newTestClient(t, s)
	j, err := s.Submit(Submission{Template: tmpl, Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j.ID, StatusDone)
	if got, err := c.Metric("leakywayd_engine_helpers_recruited_total"); err != nil || got < 1 {
		t.Fatalf("helpers recruited by a lone job = %v (%v), want >= 1", got, err)
	}
	// A job still queued or running when Drain starts must return its
	// tokens too.
	if _, err := s.Submit(Submission{Template: tmpl, Seed: 8, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Metric("leakywayd_engine_tokens_in_use"); err != nil || got != 0 {
		t.Fatalf("engine tokens in use after Drain = %v (%v), want 0", got, err)
	}
}
