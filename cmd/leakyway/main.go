// Command leakyway runs the paper-reproduction experiments: every table and
// figure of "Leaky Way" (MICRO 2022), plus the ablations and the
// robustness extensions (fault injection and the reliable ARQ transport —
// see the "faults" experiment).
//
// Usage:
//
//	leakyway list                            # show available experiments
//	leakyway run fig8 table2                 # run specific experiments
//	leakyway run all                         # run the full suite
//	leakyway -template templates/ run        # run declarative scenario templates
//	leakyway -template templates/ validate   # check templates without running
//
// Exit codes: 0 success, 1 error, 2 usage, 3 template assertions failed.
//
// Flags:
//
//	-platform skylake|kabylake|both   platforms to simulate (default both)
//	-template FILE|DIR                scenario template(s) for run/validate
//	-seed N                           master seed (default 42)
//	-quick                            reduced trial counts
//	-jobs N                           worker goroutines (default NumCPU);
//	                                  output is identical for every N
//	-json FILE                        also write all metrics as JSON
//	-trace FILE                       record a cycle-level event trace;
//	                                  .jsonl writes compact JSONL, anything
//	                                  else Chrome trace-event JSON that
//	                                  Perfetto (ui.perfetto.dev) loads
//	-trace-filter pkg1,pkg2           restrict tracing to subsystems
//	                                  (hier,sim,fault,channel)
//	-cpuprofile FILE                  write a pprof CPU profile of the run
//	-memprofile FILE                  write a pprof heap profile at exit
//	-pprof ADDR                       serve net/http/pprof on ADDR
//	                                  (e.g. localhost:6060) for live profiling
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"leakyway"
)

// Exit codes: 0 success, 1 infrastructure error, 2 usage error, 3 template
// assertion failure. Code 3 lets CI distinguish "the harness broke" from
// "the experiment ran but its declared expectations did not hold".
const exitAssertFailed = 3

// errAssertionsFailed marks a run whose template assertions failed; the
// run itself completed and all exports were written.
var errAssertionsFailed = errors.New("template assertions failed")

func main() { os.Exit(mainRun()) }

// mainRun is main with an exit code, so profile-flushing defers run even on
// failure paths (os.Exit would skip them).
func mainRun() int {
	var opt options
	showVersion := flag.Bool("version", false, "print the engine version and exit")
	flag.StringVar(&opt.platform, "platform", "both", "platform: skylake, kabylake or both")
	flag.Int64Var(&opt.seed, "seed", 42, "master seed for all stochastic elements")
	flag.BoolVar(&opt.quick, "quick", false, "run with reduced trial counts")
	flag.IntVar(&opt.jobs, "jobs", runtime.NumCPU(), "worker goroutines; results do not depend on this")
	flag.StringVar(&opt.template, "template", "", "scenario template file or directory (run/validate)")
	flag.StringVar(&opt.jsonPath, "json", "", "write metrics of every run experiment to this file as JSON")
	flag.StringVar(&opt.tracePath, "trace", "", "write a cycle-level event trace to this file (.jsonl = JSONL, else Chrome trace-event JSON)")
	flag.StringVar(&opt.traceFilter, "trace-filter", "", "comma-separated trace subsystems: hier,sim,fault,channel (default all)")
	flag.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&opt.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&opt.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Usage = usage
	flag.Parse()

	if *showVersion {
		fmt.Println("leakyway", leakyway.EngineVersion)
		return 0
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}

	if opt.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(opt.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if opt.memProfile != "" {
		defer func() {
			f, err := os.Create(opt.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	switch args[0] {
	case "list":
		list()
	case "run":
		if opt.template != "" && len(args) > 1 {
			fmt.Fprintln(os.Stderr, "run: pass experiment IDs or -template, not both")
			return 2
		}
		if opt.template == "" && len(args) < 2 {
			fmt.Fprintln(os.Stderr, "run: need experiment IDs, 'all', or -template <file|dir>")
			return 2
		}
		if err := run(args[1:], opt, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			if errors.Is(err, errAssertionsFailed) {
				return exitAssertFailed
			}
			return 1
		}
	case "validate":
		if opt.template == "" {
			fmt.Fprintln(os.Stderr, "validate: need -template <file|dir>")
			return 2
		}
		if err := validate(opt.template, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", args[0])
		usage()
		return 2
	}
	return 0
}

// validate loads every template under path, reporting each scenario it
// accepts along with its canonical fingerprint — the digest leakywayd
// folds into its result-cache key, printed here through the same
// canonical-marshal path so CLI and daemon can never drift. Any malformed
// template fails the whole pass with its file and field context.
func validate(path string, out io.Writer) error {
	specs, err := leakyway.LoadScenarios(path)
	if err != nil {
		return err
	}
	for _, s := range specs {
		fmt.Fprintf(out, "  ok  %-14s %s  %s\n", s.ID, leakyway.ScenarioFingerprint(s), s.Title)
	}
	fmt.Fprintf(out, "%d template(s) valid\n", len(specs))
	return nil
}

// options carries the flag values that shape a run.
type options struct {
	platform    string
	seed        int64
	quick       bool
	jobs        int
	template    string
	jsonPath    string
	tracePath   string
	traceFilter string
	cpuProfile  string
	memProfile  string
	pprofAddr   string
}

func usage() {
	fmt.Fprintf(os.Stderr, `leakyway — reproduction of "Leaky Way" (MICRO 2022)

usage (flags come before the command):
  leakyway [flags] list
  leakyway [flags] run <experiment>...
  leakyway [flags] run all
  leakyway -template <file|dir> [flags] run
  leakyway -template <file|dir> validate

exit codes: 0 success, 1 error, 2 usage, 3 template assertions failed

flags:
`)
	flag.PrintDefaults()
}

func list() {
	fmt.Println("available experiments:")
	for _, e := range leakyway.Experiments() {
		fmt.Printf("  %-14s %s\n", e.ID, e.Title)
	}
}

func run(ids []string, opt options, out io.Writer) (err error) {
	// Output files are created up front (fail fast on a bad path) but a
	// failed run must not leave stale exports behind. An assertion failure
	// is not an infrastructure failure: the run completed, so its exports
	// stay.
	defer func() {
		if err != nil && !errors.Is(err, errAssertionsFailed) {
			if opt.jsonPath != "" {
				os.Remove(opt.jsonPath)
			}
			if opt.tracePath != "" {
				os.Remove(opt.tracePath)
			}
		}
	}()
	var specs []*leakyway.Scenario
	if opt.template != "" {
		specs, err = leakyway.LoadScenarios(opt.template)
		if err != nil {
			return err
		}
	}
	ctx := leakyway.NewExperimentContext(out)
	ctx.Seed = opt.seed
	ctx.Quick = opt.quick
	if opt.jobs > 0 {
		ctx.Jobs = opt.jobs
	}
	switch opt.platform {
	case "both", "":
		// default platforms
	default:
		p, ok := leakyway.PlatformByName(opt.platform)
		if !ok {
			return fmt.Errorf("unknown platform %q (want skylake, kabylake or both)", opt.platform)
		}
		ctx.Platforms = []leakyway.Platform{p}
	}

	// Output files are created (and truncated) before any experiment runs,
	// so a bad path fails in milliseconds instead of after the whole suite.
	var jsonFile, traceFile *os.File
	if opt.jsonPath != "" {
		f, err := os.Create(opt.jsonPath)
		if err != nil {
			return fmt.Errorf("json export: %w", err)
		}
		defer f.Close()
		jsonFile = f
	}
	if opt.tracePath != "" {
		f, err := os.Create(opt.tracePath)
		if err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		defer f.Close()
		traceFile = f
		mask, err := leakyway.ParseTraceMask(opt.traceFilter)
		if err != nil {
			return err
		}
		ctx.Trace = leakyway.NewTraceCollector()
		ctx.TraceMask = mask
	} else if opt.traceFilter != "" {
		return fmt.Errorf("-trace-filter requires -trace")
	}

	results := map[string]*leakyway.ExperimentResult{}
	switch {
	case specs != nil:
		all, err := leakyway.RunScenarios(ctx, specs)
		if err != nil {
			return err
		}
		results = all
	case len(ids) == 1 && ids[0] == "all":
		all, err := leakyway.RunAllExperiments(ctx)
		if err != nil {
			return err
		}
		results = all
	default:
		for _, id := range ids {
			res, err := leakyway.RunExperiment(ctx, id)
			if err != nil {
				return err
			}
			results[id] = res
		}
	}

	if jsonFile != nil {
		if err := leakyway.WriteExperimentMetricsJSON(jsonFile, results); err != nil {
			return fmt.Errorf("json export: %w", err)
		}
	}
	if traceFile != nil {
		if err := exportTrace(traceFile, opt.tracePath, ctx.Trace, out); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
	}
	return checkAssertions(specs, results, out)
}

// checkAssertions evaluates every template's extractors and assertions
// against its completed run, after the report and all exports. A failing
// assertion maps to the dedicated exit code, not to a generic error.
func checkAssertions(specs []*leakyway.Scenario, results map[string]*leakyway.ExperimentResult, out io.Writer) error {
	failed := 0
	printed := false
	for _, s := range specs {
		if len(s.Extract) == 0 && len(s.Assert) == 0 {
			continue
		}
		res := results[s.ID]
		if res == nil {
			continue
		}
		if !printed {
			fmt.Fprintf(out, "\ntemplate checks:\n")
			printed = true
		}
		ev := s.Evaluate(res.Report, res.Metrics)
		status := "PASS"
		if ev.Failed > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(out, "%s %s\n%s", status, s.ID, ev.Render())
		failed += ev.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d assertion(s) did not hold", errAssertionsFailed, failed)
	}
	return nil
}

// exportTrace writes the collected trace in the format the file extension
// selects and prints one summary line per traced experiment.
func exportTrace(f *os.File, path string, col *leakyway.TraceCollector, out io.Writer) error {
	bufs := col.Buffers()
	var err error
	if strings.HasSuffix(path, ".jsonl") {
		err = leakyway.WriteTraceJSONL(f, bufs)
	} else {
		err = leakyway.WriteChromeTrace(f, bufs)
	}
	if err != nil {
		return err
	}
	keys, counts := col.CountByPrefix()
	total := 0
	for _, k := range keys {
		fmt.Fprintf(out, "trace: %-12s %d events\n", k, counts[k])
		total += counts[k]
	}
	fmt.Fprintf(out, "trace: %d events in %d streams -> %s\n", total, len(bufs), path)
	return nil
}
