// Command benchmark measures leakyway end to end, the way its two kinds
// of users meet it: a researcher regenerating the paper (experiments.RunAll),
// a covert-channel transmission on the simulator (channel.RunNTPNTP), and an
// operator submitting scenario templates to the leakywayd service over HTTP.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload paper-full --seed 7 --seconds 16 --trace 0
//
// Every round runs in a fresh child process (the binary re-executes itself),
// so each round pays the cold start a CLI invocation or daemon restart pays.
// The last line of standard output is one JSON object with the metrics; the
// lines before it print each metric as "workload metric value unit". See
// README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds a whole run, child processes included, so that a run
// always ends within 180 s.
const runTimeout = 170 * time.Second

func main() {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout, defaultSizes); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one benchmark run.
type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	spans     string
	repin     bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (interleaved round-robin)")
	seed := fs.Int64("seed", pinnedSeed, "seed from which every input is derived")
	seconds := fs.Float64("seconds", 16, "seconds of measurement per workload, split across its rounds")
	trace := fs.Int("trace", 0, "1 runs one untraced and one traced round plus the layer probes, and prints per-layer metrics")
	spans := fs.String("spans", filepath.Join(buildDir, "spans.jsonl"), "where a traced run writes its spans (JSON lines)")
	repin := fs.Bool("repin", false, "recompute the correctness pins in "+referencePath+" for the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, repin: *repin}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	switch {
	case *workload == "all":
		o.workloads = workloadNames()
	case slices.Contains(workloadNames(), *workload):
		o.workloads = []string{*workload}
	default:
		return o, fmt.Errorf("unknown workload %q (have %s, all)", *workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

// run is the parent process: it plans the rounds, runs each in a child,
// checks outputs across rounds and against the pins, and prints the result.
func run(args []string, stdout io.Writer, sz sizes) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.repin {
		return repin(stdout, sz)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(buildDir, "work"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}

	// Plan: untraced runs interleave rounds round-robin (A B C D A B C D
	// ...), so a slow spell on a shared host is spread across workloads.
	// A traced run measures one untraced round (the overhead baseline) and
	// one traced round per workload, then the layer probes once.
	var plan []childSpec
	add := func(w string, round int, traced bool, budget float64) {
		plan = append(plan, childSpec{Workload: w, Round: round, Seed: o.seed, Budget: budget, Traced: traced, Work: work, Sizes: sz})
	}
	if o.trace {
		for _, w := range o.workloads {
			add(w, 0, false, o.seconds/float64(sz.Rounds))
		}
		for _, w := range o.workloads {
			add(w, 1, true, o.seconds/float64(sz.Rounds))
		}
		add(probesName, 0, false, 0)
	} else {
		for r := 0; r < sz.Rounds; r++ {
			for _, w := range o.workloads {
				add(w, r, false, o.seconds/float64(sz.Rounds))
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	out := report{Metrics: map[string]metricValue{}}
	checks := newDigestCheck(ref, o.seed)
	results := map[string][]roundResult{}
	for _, spec := range plan {
		r, err := runChild(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", spec.Workload, spec.Round, err)
		}
		results[spec.Workload] = append(results[spec.Workload], r)
		checks.add(r)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %s\n", r.Workload, r.Round, f)
		}
	}

	for _, w := range o.workloads {
		rs := results[w]
		var ms map[string]float64
		if o.trace {
			ms = perLayerMetrics(rs, results[probesName])
			printSelfTimes(stdout, w, rs)
		} else {
			ms = endToEndMetrics(rs)
		}
		prefix := ""
		if len(o.workloads) > 1 {
			prefix = w + "/"
		}
		for _, d := range metricDefs(o.trace) {
			v, ok := ms[d.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", w, d.name)
			}
			fmt.Fprintf(stdout, "%s %s %s %s\n", w, d.name, formatValue(v), d.unit)
			out.Metrics[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
		}
		printNotes(stdout, w, rs)
	}
	for _, f := range checks.failures {
		fmt.Fprintln(os.Stderr, "benchmark: correctness:", f)
	}
	out.Failed += len(checks.failures)
	out.Correct = out.Failed == 0
	if o.trace {
		if err := writeSpans(o.spans, results); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", o.spans)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runChild executes one round in a fresh process of this binary and decodes
// the round result it prints; the process is killed when ctx ends. Peak RSS
// is read from the child's rusage, so it is measured from outside the
// process.
func runChild(ctx context.Context, spec childSpec) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	spec.StartUnixNano = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return roundResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, childFlag, string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return roundResult{}, fmt.Errorf("child process: %w", err)
	}
	var res roundResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return roundResult{}, fmt.Errorf("decoding child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return res, nil
}

// endToEndMetrics aggregates a workload's untraced rounds, each scaled by
// its own calibrations.
func endToEndMetrics(rs []roundResult) map[string]float64 {
	var setups, lat []float64
	var n int
	var secs float64
	for _, r := range rs {
		f := r.scale()
		setups = append(setups, r.SetupS*f)
		for _, t := range r.primaryTimes() {
			lat = append(lat, t*f)
		}
		if wl, _ := workloadByName(r.Workload); wl.open {
			f = 1
		}
		n += r.RateOps
		secs += r.RateSeconds * f
	}
	m := map[string]float64{"setup_s": median(setups), "op_p50_s": median(lat)}
	if secs > 0 {
		m["ops_per_s"] = float64(n) / secs
	}
	return m
}

// printNotes prints what a run measured besides the gated metrics: sample
// counts and the tail, the wall times behind the scaled ones, peak memory,
// the per-workload names of the gated numbers, and the load generator's
// validity.
func printNotes(w io.Writer, name string, rs []roundResult) {
	var lat, wall, setupWall, cals []float64
	var rss, late float64
	var polls, jobs, auxOps int
	var auxSecs float64
	for _, r := range rs {
		if r.Traced {
			continue
		}
		f := r.scale()
		for _, t := range r.primaryTimes() {
			lat = append(lat, t*f)
			wall = append(wall, t)
		}
		setupWall = append(setupWall, r.SetupS)
		cals = append(cals, r.Calibrations...)
		rss = max(rss, r.PeakRSSMB)
		late = max(late, r.LateMaxMs)
		polls += r.Polls
		jobs += r.PolledJobs
		auxOps += r.AuxOps
		auxSecs += r.AuxSeconds
	}
	note := func(format string, args ...any) { fmt.Fprintf(w, "# %s "+format+"\n", append([]any{name}, args...)...) }
	wl, _ := workloadByName(name)
	note("%s: %d samples, p50 %s s, p90 %s s", wl.primary, len(lat), formatValue(median(lat)), formatValue(quantile(lat, 0.9)))
	note("wall time, unscaled: %s p50 %s s, setup %s s", wl.primary, formatValue(median(wall)), formatValue(median(setupWall)))
	note("calibration loop: %d runs, p10 %s s, p50 %s s, p90 %s s (reference %v s)", len(cals),
		formatValue(quantile(cals, 0.1)), formatValue(median(cals)), formatValue(quantile(cals, 0.9)), calRefSeconds)
	note("peak_rss_mb %s MB (largest round)", formatValue(rss))
	if auxSecs > 0 {
		note("hit_jobs_per_s %s 1/s (wall time; not gated, as it follows the host's fsync latency)", formatValue(float64(auxOps)/auxSecs))
	}
	if jobs > 0 {
		note("loadgen.polls_per_job %s", formatValue(float64(polls)/float64(jobs)))
	}
	if name == "daemon-mixed" {
		note("loadgen.late_max_ms %s ms (a round fails beyond %v)", formatValue(late), mixedPeriod)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
