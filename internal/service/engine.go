package service

import (
	"bytes"
	"context"
	"fmt"

	"leakyway/internal/experiments"
	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
	"leakyway/internal/trace"
)

// EngineRunner is the production Runner: it drives the experiment engine
// exactly the way the CLI does, so a daemon-produced metrics artifact is
// byte-identical to `leakyway -template <t> -seed <s> -json` output for
// the same parameters. When prog is non-nil the engine publishes phase
// and shard checkpoints into it; they are one-way atomic ticks that
// observe the run without steering it, so the artifacts stay
// byte-identical with telemetry on or off. Only a traced job gets a
// tracer: an untraced job runs with a nil tracer, on the same
// zero-cost emit path as the CLI. The run's workers come from the budget
// the server attaches to ctx (experiments.WithBudget), never from
// sub.Jobs; without one the run is serial.
func EngineRunner(ctx context.Context, sub Submission, spec *scenario.Spec, prog *telemetry.Progress) (*Result, error) {
	var report bytes.Buffer
	ectx := experiments.NewContext(&report)
	ectx.Ctx = ctx
	ectx.Seed = sub.Seed
	ectx.Quick = sub.Quick
	ectx.Jobs = 1
	ectx.Progress = prog
	if sub.Platform != "both" {
		p, ok := platform.ByName(sub.Platform)
		if !ok {
			// normalize() validated this; reaching here is a programming error.
			return nil, fmt.Errorf("unknown platform %q", sub.Platform)
		}
		ectx.Platforms = []hier.Config{p}
	}
	if sub.Trace {
		ectx.Trace = trace.NewCollector()
	}

	results, err := experiments.RunSpecs(ectx, []*scenario.Spec{spec})
	if err != nil {
		return nil, err
	}

	var metrics bytes.Buffer
	if err := experiments.WriteMetricsJSON(&metrics, results); err != nil {
		return nil, fmt.Errorf("metrics export: %w", err)
	}
	res := &Result{
		Report:  append([]byte(nil), report.Bytes()...),
		Metrics: metrics.Bytes(),
	}
	if sub.Trace {
		var tb bytes.Buffer
		if err := trace.WriteChromeTrace(&tb, ectx.Trace.Buffers()); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		res.Trace = tb.Bytes()
	}
	if r := results[spec.ID]; r != nil {
		ev := spec.Evaluate(r.Report, r.Metrics)
		res.AssertFailed = ev.Failed
		res.AssertTotal = len(ev.Assertions)
	}
	return res, nil
}
