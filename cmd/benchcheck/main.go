// Command benchcheck is the CI perf-regression gate: it runs the pinned
// microbenchmark set and compares ns/op and allocs/op against the committed
// baselines in BENCH.json ("gates" section).
//
//	go run ./cmd/benchcheck             # check against baselines
//	go run ./cmd/benchcheck -update     # refresh baselines from this host
//	go run ./cmd/benchcheck -inflate 2  # sanity-check the gate itself: a
//	                                    # synthetic 2x slowdown must fail
//
// A benchmark fails the gate when its measured ns/op exceeds the baseline by
// more than the tolerance (default ±20%), or when its allocs/op exceeds the
// committed ceiling by more than 1%, rounded up (see allocLimit). The ns/op
// tolerance does not apply to allocations: they are nearly deterministic
// (eight BenchmarkFig8 runs on one host gave 9 875–9 902 allocs/op), so
// the 1% only absorbs that jitter, and a 0-alloc gate stays exact.
// Improvements beyond the tolerance are reported as stale baselines but do
// not fail the build; run -update to re-pin them.
//
// Benchmarks run with fixed iteration counts (-benchtime Nx) so short CI
// runs measure identical work on every invocation. Shared runners see
// seconds-long speed excursions that one sample cannot average away, so a
// gate that fails its first measurement is re-measured (up to -retries extra
// attempts) and passes if any attempt lands inside the tolerance; a genuine
// regression fails every attempt.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gate is one pinned benchmark in BENCH.json. CalNs is the reference
// workload's time measured immediately before this gate's benchmark ran on
// the pinning host: the check compares ns_per_op/cal_ns ratios, a
// dimensionless cost that cancels host-speed differences (CPU steal,
// frequency scaling, a different CI runner) which would otherwise swamp a
// ±20% gate.
type gate struct {
	Bench       string  `json:"bench"`
	Package     string  `json:"package"`
	Benchtime   string  `json:"benchtime"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	CalNs       float64 `json:"cal_ns"`
}

// gatesSection is BENCH.json's "gates" object.
type gatesSection struct {
	TolerancePct float64 `json:"tolerance_pct"`
	Entries      []gate  `json:"entries"`
}

// benchFile mirrors BENCH.json so -update can rewrite the gates without
// disturbing the narrative sections.
type benchFile struct {
	Date              string         `json:"date"`
	Host              map[string]any `json:"host"`
	KernelSpeedup     map[string]any `json:"kernel_speedup,omitempty"`
	BatchKernel       map[string]any `json:"batch_kernel,omitempty"`
	CoroutineHandoff  map[string]any `json:"coroutine_handoff,omitempty"`
	FillSummary       map[string]any `json:"fill_summary,omitempty"`
	Benchmarks        map[string]any `json:"benchmarks"`
	Speedups          map[string]any `json:"speedups,omitempty"`
	TraceOverhead     map[string]any `json:"trace_overhead,omitempty"`
	TelemetryOverhead map[string]any `json:"telemetry_overhead,omitempty"`
	Determinism       string         `json:"determinism,omitempty"`
	Gates             gatesSection   `json:"gates"`
}

// benchLine matches one `go test -bench` result line, with or without the
// -GOMAXPROCS suffix and with optional custom metrics between ns/op and the
// -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		path      = flag.String("baseline", "BENCH.json", "baseline file to check or update")
		update    = flag.Bool("update", false, "rewrite the baselines from this host's measurements")
		tolerance = flag.Float64("tolerance", 0, "override ns/op tolerance percentage (0 = use the file's)")
		inflate   = flag.Float64("inflate", 1, "multiply measured ns/op (gate self-test: -inflate 2 must fail)")
		retries   = flag.Int("retries", 3, "extra measurement attempts for gates that fail (noise guard)")
	)
	flag.Parse()

	raw, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: parse %s: %v\n", *path, err)
		return 2
	}
	if len(bf.Gates.Entries) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s has no gates\n", *path)
		return 2
	}
	tol := bf.Gates.TolerancePct
	if *tolerance > 0 {
		tol = *tolerance
	}

	measured, err := runBenchmarks(bf.Gates.Entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 2
	}

	if *update {
		var rows []summaryRow
		for i := range bf.Gates.Entries {
			g := &bf.Gates.Entries[i]
			m, ok := measured[g.Bench]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchcheck: %s produced no result\n", g.Bench)
				return 2
			}
			rows = append(rows, summaryRow{
				bench: g.Bench, status: "repinned",
				baseline: g.NsPerOp, measured: m.ns,
				delta:  (m.ns/g.NsPerOp - 1) * 100,
				allocs: m.allocs, maxAllocs: g.AllocsPerOp,
			})
			g.NsPerOp = m.ns
			g.AllocsPerOp = m.allocs
			g.CalNs = m.cal
		}
		writeStepSummary("benchcheck: re-pinned baselines", rows)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // keep "->" in narrative strings readable
		enc.SetIndent("", "  ")
		if err := enc.Encode(&bf); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			return 2
		}
		if err := os.WriteFile(*path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			return 2
		}
		fmt.Printf("benchcheck: rewrote %d baselines in %s\n", len(bf.Gates.Entries), *path)
		return 0
	}

	failed := false
	maxAttempts := 1 + *retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	// latest holds each gate's most recent evaluation; re-measured gates
	// overwrite their first noisy sample, so the job summary shows the
	// verdict attempt.
	latest := map[string]summaryRow{}
	pending := bf.Gates.Entries
	for attempt := 1; ; attempt++ {
		var still []gate
		for _, g := range pending {
			m, ok := measured[g.Bench]
			if !ok {
				fmt.Printf("FAIL  %-28s no result (renamed or removed?)\n", g.Bench)
				latest[g.Bench] = summaryRow{bench: g.Bench, status: "FAIL (no result)"}
				failed = true
				continue
			}
			row := evaluate(g, m, tol, *inflate)
			latest[g.Bench] = row
			if row.status == "FAIL" {
				still = append(still, g)
			}
		}
		if len(still) == 0 || attempt == maxAttempts {
			failed = failed || len(still) > 0
			break
		}
		fmt.Printf("benchcheck: %d gate(s) outside tolerance; re-measuring (attempt %d of %d)\n",
			len(still), attempt+1, maxAttempts)
		measured, err = runBenchmarks(still)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			return 2
		}
		pending = still
	}
	rows := make([]summaryRow, 0, len(bf.Gates.Entries))
	for _, g := range bf.Gates.Entries {
		if row, ok := latest[g.Bench]; ok {
			rows = append(rows, row)
		}
	}
	if failed {
		writeStepSummary(fmt.Sprintf("benchcheck: FAILED (tolerance ±%.0f%%)", tol), rows)
		fmt.Printf("benchcheck: FAILED (tolerance ±%.0f%%, %d attempts); if intentional, re-pin with `go run ./cmd/benchcheck -update`\n", tol, maxAttempts)
		return 1
	}
	writeStepSummary(fmt.Sprintf("benchcheck: all %d gates within ±%.0f%%", len(bf.Gates.Entries), tol), rows)
	fmt.Printf("benchcheck: all %d gates within ±%.0f%%\n", len(bf.Gates.Entries), tol)
	return 0
}

// summaryRow is one gate's outcome for the CI job summary: the (scaled)
// baseline it was held against, what was measured, and the verdict.
type summaryRow struct {
	bench     string
	status    string
	baseline  float64 // scaled baseline ns/op (or pinned ns/op in -update)
	measured  float64 // measured ns/op
	delta     float64 // percent vs baseline
	allocs    int64
	maxAllocs int64
}

// writeStepSummary appends a markdown before/after table to the file named
// by $GITHUB_STEP_SUMMARY, the GitHub Actions job-summary sink. Outside CI
// (variable unset) it does nothing; write errors are reported but never
// change the gate's exit status.
func writeStepSummary(title string, rows []summaryRow) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" || len(rows) == 0 {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", title)
	sb.WriteString("| benchmark | baseline ns/op | measured ns/op | Δ | allocs/op (max) | status |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %.0f | %.0f | %+.1f%% | %d (%d) | %s |\n",
			r.bench, r.baseline, r.measured, r.delta, r.allocs, r.maxAllocs, r.status)
	}
	sb.WriteString("\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: step summary:", err)
		return
	}
	defer f.Close()
	if _, err := f.WriteString(sb.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: step summary:", err)
	}
}

// evaluate prints one gate's result line and returns its summary row.
func evaluate(g gate, m result, tol, inflate float64) summaryRow {
	ns := m.ns * inflate
	// Host-speed factor for this gate's invocation window, clamped: a
	// factor outside [0.25, 4] means calibration itself is broken, and
	// scaling that far would make the gate meaningless either way.
	scale := 1.0
	if g.CalNs > 0 && m.cal > 0 {
		scale = m.cal / g.CalNs
		if scale < 0.25 {
			scale = 0.25
		} else if scale > 4 {
			scale = 4
		}
	}
	ratio := ns / (g.NsPerOp * scale)
	status := "ok  "
	switch {
	case m.allocs > allocLimit(g.AllocsPerOp):
		status = "FAIL"
	case ratio > 1+tol/100:
		status = "FAIL"
	case ratio < 1-tol/100:
		status = "note" // faster than baseline: stale, not fatal
	}
	fmt.Printf("%s  %-28s %10.1f ns/op (scaled baseline %10.1f, %+.0f%%)  %d allocs/op (max %d)\n",
		status, g.Bench, ns, g.NsPerOp*scale, (ratio-1)*100, m.allocs, g.AllocsPerOp)
	return summaryRow{
		bench: g.Bench, status: strings.TrimSpace(status),
		baseline: g.NsPerOp * scale, measured: ns, delta: (ratio - 1) * 100,
		allocs: m.allocs, maxAllocs: g.AllocsPerOp,
	}
}

// allocLimit is the most allocs/op a gate accepts for its pinned ceiling:
// the ceiling plus 1%, rounded up, so a 0-alloc gate allows none.
func allocLimit(ceiling int64) int64 {
	return ceiling + (ceiling+99)/100
}

// result is one measured benchmark, plus the reference-workload time
// sampled just before its invocation.
type result struct {
	ns     float64
	allocs int64
	cal    float64
}

// calSink defeats dead-code elimination of the calibration loop.
var calSink uint64

// calibrate times a fixed pure-ALU workload (an LCG chain, serially
// dependent so the compiler cannot vectorize it away) and returns the best
// of three runs in nanoseconds. It runs immediately before each benchmark
// invocation so the sample shares that invocation's host-speed window; the
// benchmarks under test are L1-resident, so they track core speed the same
// way this loop does.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(rep + 1)
		for i := 0; i < 50_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calSink += x
		el := float64(time.Since(start).Nanoseconds())
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

// runBenchmarks executes the gate set, one `go test` per (package,
// benchtime) group, and parses the results.
func runBenchmarks(gates []gate) (map[string]result, error) {
	type groupKey struct{ pkg, benchtime string }
	groups := map[groupKey][]string{}
	for _, g := range gates {
		k := groupKey{g.Package, g.Benchtime}
		groups[k] = append(groups[k], g.Bench)
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].benchtime < keys[j].benchtime
	})

	out := map[string]result{}
	for _, k := range keys {
		cal := calibrate()
		pattern := "^(" + strings.Join(groups[k], "|") + ")$"
		// -count 5, median per benchmark: fixed iteration counts make each
		// repetition measure identical work, and the median damps both
		// one-off stalls and brief frequency excursions. Allocation counts
		// are near-deterministic; the max is kept so growth trips the gate.
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
			"-benchtime", k.benchtime, "-count", "5", "-benchmem", k.pkg)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s %s: %v\n%s", pattern, k.pkg, err, raw)
		}
		samples := map[string][]float64{}
		for _, line := range strings.Split(string(raw), "\n") {
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("parse ns/op in %q: %v", line, err)
			}
			var allocs int64
			if m[3] != "" {
				allocs, _ = strconv.ParseInt(m[3], 10, 64)
			}
			samples[m[1]] = append(samples[m[1]], ns)
			if prev, seen := out[m[1]]; !seen || allocs > prev.allocs {
				out[m[1]] = result{allocs: allocs}
			}
		}
		for name, ns := range samples {
			sort.Float64s(ns)
			r := out[name]
			r.ns = ns[len(ns)/2]
			r.cal = cal
			out[name] = r
		}
	}
	return out, nil
}
