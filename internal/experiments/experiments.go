// Package experiments contains one runnable reproduction per table and
// figure of the paper's evaluation, plus the ablations called out in
// DESIGN.md. Each experiment renders human-readable output and returns
// machine-checkable metrics that the test suite and EXPERIMENTS.md assert
// against.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/telemetry"
	"leakyway/internal/trace"
)

// Context carries the shared run parameters.
type Context struct {
	// Platforms are the machines to run on (defaults to Table I's two).
	Platforms []hier.Config
	// Seed drives every stochastic element. The engine never feeds it to
	// an RNG directly: every task derives its own stream with SplitSeed,
	// so results are independent of scheduling (see seed.go).
	Seed int64
	// Quick reduces trial counts (used by tests and -quick runs).
	Quick bool
	// Out receives the rendered report.
	Out io.Writer
	// Jobs caps the engine-wide worker count (experiments running
	// concurrently plus trial shards inside them). 0 and 1 both mean
	// serial. Any value produces byte-identical output for a given seed.
	Jobs int

	// Ctx, when non-nil, makes the run cancellable: the engine checks it
	// before starting each experiment, between trial shards handed out by
	// Parallel, and every few thousand simulated cycles inside every
	// running machine, so RunAll returns the context's error
	// (context.Canceled or DeadlineExceeded) promptly after cancellation.
	// Nil (the default) runs to completion with zero checking overhead.
	Ctx context.Context

	// Progress, when non-nil, receives coarse run-progress checkpoints:
	// phase start/end per experiment and a counter tick per trial shard
	// handed out by Parallel. Checkpoints are single atomic operations
	// that feed nothing back into the simulation, so experiment output is
	// byte-identical with Progress attached or nil, for any Jobs value.
	// Nil (the default) costs one pointer check per checkpoint site.
	Progress *telemetry.Progress

	// Trace, when non-nil, collects per-machine event streams; TraceMask
	// selects the recorded subsystems (zero means all). Stream labels are
	// derived from experiment/platform/point names — never from
	// scheduling — so a traced run exports byte-identically for any Jobs
	// value.
	Trace     *trace.Collector
	TraceMask trace.Mask
	// tracePath is the label prefix accumulated through child contexts
	// ("fig8/platform/skylake").
	tracePath string

	// mu serializes writes to Out. The engine gives every task a private
	// buffer, so under RunAll this is never contended; it exists so that
	// a hand-built Context shared across goroutines still never tears a
	// single Printf.
	mu sync.Mutex
	// sem is the engine-wide worker-token bucket shared by child
	// contexts; see Parallel in engine.go.
	sem chan struct{}
	// guarded marks contexts whose task goroutine runs under runGuarded's
	// recover. Only then may Parallel unwind a cancelled run with a
	// taskAbort panic; on a hand-built context it just stops issuing
	// shards, so the panic can never escape into caller code.
	guarded bool
}

// NewContext returns a default context writing to out.
func NewContext(out io.Writer) *Context {
	return &Context{
		Platforms: platform.All(),
		Seed:      42,
		Out:       out,
		Jobs:      runtime.NumCPU(),
	}
}

// child clones the run parameters into a task context with its own seed
// and output sink, appending label to the trace-stream path. The
// worker-token bucket is shared so nested parallelism stays under the
// global -jobs cap.
func (ctx *Context) child(seed int64, out io.Writer, label string) *Context {
	return &Context{
		Platforms: ctx.Platforms,
		Seed:      seed,
		Quick:     ctx.Quick,
		Out:       out,
		Jobs:      ctx.Jobs,
		Ctx:       ctx.Ctx,
		Progress:  ctx.Progress,
		Trace:     ctx.Trace,
		TraceMask: ctx.TraceMask,
		tracePath: joinLabel(ctx.tracePath, label),
		sem:       ctx.sem,
		guarded:   ctx.guarded,
	}
}

// canceled reports the run context's error, nil while the run may proceed.
// It is the engine's cooperative cancellation checkpoint; the nil-Ctx fast
// path keeps uncancellable runs free of overhead.
func (ctx *Context) canceled() error {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Err()
}

func joinLabel(base, part string) string {
	if base == "" {
		return part
	}
	if part == "" {
		return base
	}
	return base + "/" + part
}

// Tracer registers a trace stream labeled with the context's path plus
// parts and returns its tracer; nil (the disabled no-op sink) when the
// run is untraced. Every traced machine needs its own label, and labels
// must be deterministic — derive them from experiment, platform and
// sweep-point names, never from worker IDs or timing.
func (ctx *Context) Tracer(parts ...string) *trace.Tracer {
	if ctx.Trace == nil {
		return nil
	}
	label := ctx.tracePath
	for _, p := range parts {
		label = joinLabel(label, p)
	}
	mask := ctx.TraceMask
	if mask == 0 {
		mask = trace.PkgAll
	}
	return ctx.Trace.Tracer(label, mask)
}

// SeedFor derives the seed for a named sub-task of this context.
func (ctx *Context) SeedFor(parts ...string) int64 {
	return SplitSeed(ctx.Seed, parts...)
}

// ShardSeed derives the seed for numbered trial shard i.
func (ctx *Context) ShardSeed(i int) int64 { return splitSeedIndex(ctx.Seed, i) }

// Trials scales a full trial count down in quick mode.
func (ctx *Context) Trials(full int) int {
	if ctx.Quick {
		n := full / 10
		if n < 50 {
			n = 50
		}
		if n > full {
			n = full
		}
		return n
	}
	return full
}

// Printf writes to the context's output.
func (ctx *Context) Printf(format string, args ...any) {
	if ctx.Out != nil {
		ctx.mu.Lock()
		fmt.Fprintf(ctx.Out, format, args...)
		ctx.mu.Unlock()
	}
}

// Result is an experiment's machine-checkable outcome. Metric is safe to
// call from concurrent trial shards; the final map depends only on the
// names and values recorded, never on recording order.
type Result struct {
	// Metrics hold named scalar outcomes ("skylake/ntpntp_peak_kbps").
	Metrics map[string]float64
	// Report is the experiment's rendered text (banner included), captured
	// at flush time by the engine. Scenario extractors run over it.
	Report string

	mu sync.Mutex
}

// Metric records one named value.
func (r *Result) Metric(name string, v float64) {
	r.mu.Lock()
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
	r.mu.Unlock()
}

// Experiment is one table/figure reproduction.
type Experiment struct {
	// ID is the registry key ("fig2", "table2", ...).
	ID string
	// Title says what it reproduces.
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Run executes the experiment.
	Run func(ctx *Context) (*Result, error)
}

var registry []Experiment

// paperOrder is the canonical presentation order (paper order, then the
// ablations).
var paperOrder = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
	"fig6", "fig7", "fig8", "table2",
	"fig11", "fnrate", "fig9", "fig10", "fig12", "table3",
	"fig13", "counter", "evset-algos",
	"classic", "defense", "noninclusive", "selfsync", "pollution", "noise", "faults", "resolution", "stealth",
	"ablate-sets", "ablate-lanes", "ablate-hwpf", "ablate-policy",
}

func register(e Experiment) {
	registry = append(registry, e)
}

// orderOf returns an experiment's rank in the canonical order.
func orderOf(id string) int {
	for i, x := range paperOrder {
		if x == id {
			return i
		}
	}
	return len(paperOrder)
}

// All returns the experiments in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment IDs in paper order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// header prints the experiment banner.
func header(ctx *Context, e Experiment) {
	ctx.Printf("\n=== %s — %s ===\n", e.ID, e.Title)
	if e.Paper != "" {
		ctx.Printf("paper: %s\n", e.Paper)
	}
}

// RunOne executes a single experiment by ID with its banner. The
// experiment sees the same derived seed it would inside RunAll, so a
// single-experiment run regenerates exactly its section of the full
// report.
func RunOne(ctx *Context, id string) (*Result, error) {
	e, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have: %s)", id, strings.Join(IDs(), ", "))
	}
	results, err := runExperiments(ctx, []Experiment{e})
	return results[e.ID], err
}

// RunAll executes every registered experiment in paper order, collecting
// metrics. With ctx.Jobs > 1 experiments run on a worker pool (and the
// heavy experiments additionally shard their trials), but every task
// renders into a private buffer and buffers are flushed in paper order,
// so the report is byte-identical for any job count.
func RunAll(ctx *Context) (map[string]*Result, error) {
	return runExperiments(ctx, All())
}

// renderTable prints an aligned text table.
func renderTable(ctx *Context, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		ctx.Printf("  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// sortedMetricNames is a test helper.
func sortedMetricNames(r *Result) []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// shortName maps a platform to a metric prefix.
func shortName(cfg hier.Config) string {
	if strings.Contains(cfg.Name, "Kaby") {
		return "kabylake"
	}
	if strings.Contains(cfg.Name, "Skylake") {
		return "skylake"
	}
	return strings.ToLower(strings.Fields(cfg.Name)[0])
}
