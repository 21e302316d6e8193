// Command benchcheck is the CI perf-regression gate. It times the benchmarks
// listed in BENCH.json ("gates") on the working tree (head) and on a base
// revision, and fails when head is slower than the base.
//
//	go run ./cmd/benchcheck              # head against the base revision
//	go run ./cmd/benchcheck -inflate 1.3 # self-test: a synthetic 30%
//	                                     # slowdown must fail
//
// The base is HEAD when tracked files differ from it (a local change) and
// HEAD^1 otherwise (a pull request's merge commit, or a push). Its tree is
// extracted with `git archive` into a temporary directory that every exit
// removes; nothing is written under .git.
//
// Each gate package is compiled once per side (`go test -c`), and the two
// binaries run in alternating pairs at the gate's fixed -benchtime, one
// -test.count per run. A gate fails when the median of its per-pair
// head/base ns/op ratios exceeds 1 + tolerance_pct/100 (BENCH.json: 20%).
// Host speed drifts over seconds (one HierAccess binary measured 13.9–24.6
// ns in five back-to-back runs), so only runs that share a speed window
// compare: the two runs of a pair do, a pin taken on another day does not.
//
// Allocations are compared as each side's fewest allocs/op over its runs:
// host scheduling only adds to them (the run in which two experiment
// shards of one configuration first overlap builds a second hierarchy, so
// BenchmarkFig2 occasionally reads ~5 540 instead of ~1 310 allocs/op),
// while a change to the code moves every run. Between its low runs the
// count jitters by a few allocations, so head may allocate at most the
// base's count plus 1%, rounded up (see allocLimit), and a 0-alloc gate
// stays exact. A gate the base lacks is "new" and passes; a gate with no
// head result fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pairs is the number of alternating base/head pairs per gate. With 5 pairs
// the median ratio of identical binaries reached 1.21 on a shared 2-vCPU
// host; with 9 it stayed within 0.89–1.08.
const pairs = 9

// The two sides of a pair, as indices into per-side arrays.
const (
	base = iota
	head
)

// gate is one benchmark listed in BENCH.json.
type gate struct {
	Bench     string `json:"bench"`
	Package   string `json:"package"`
	Benchtime string `json:"benchtime"`
}

// sample is one benchmark's result from one run.
type sample struct {
	ns     float64
	allocs int64
}

// benchLine matches one `go test -bench` result line, with or without the
// -GOMAXPROCS suffix and with optional custom metrics between ns/op and the
// -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

func main() {
	path := flag.String("baseline", "BENCH.json", "file listing the gates and their tolerance")
	inflate := flag.Float64("inflate", 1, "multiply head ns/op (gate self-test: -inflate 1.3 must fail)")
	flag.Parse()
	failed, err := check(*path, *inflate)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	case failed:
		os.Exit(1)
	}
}

// check times the gates listed in path, prints a verdict per gate and
// reports whether any failed. Its deferred calls run on every return, so
// the base tree never outlives it.
func check(path string, inflate float64) (failed bool, err error) {
	var file struct {
		Gates struct {
			TolerancePct float64 `json:"tolerance_pct"`
			Entries      []gate  `json:"entries"`
		} `json:"gates"`
	}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if err == nil && len(file.Gates.Entries) == 0 {
		err = errors.New("no gates")
	}
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	tol := file.Gates.TolerancePct

	// An interrupt cancels the running child, so check still returns
	// through the deferred removal of the base tree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "benchcheck-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	rev, baseRoot, err := extractBase(ctx, tmp)
	if err != nil {
		return false, err
	}
	roots := [2]string{baseRoot, "."}
	bins, err := build(ctx, file.Gates.Entries, roots, tmp)
	if err != nil {
		return false, err
	}
	fmt.Printf("benchcheck: head (working tree) against base %s, %d alternating pairs\n", rev, pairs)
	samples, err := measure(file.Gates.Entries, pairs, func(side int, g gate) (sample, bool, error) {
		if bins[side][g.Package] == "" { // the base tree lacks this package
			return sample{}, false, nil
		}
		return runBinary(ctx, bins[side][g.Package], filepath.Join(roots[side], g.Package), g)
	})
	if err != nil {
		return false, err
	}

	rows := make([]row, 0, len(file.Gates.Entries))
	for _, g := range file.Gates.Entries {
		r := verdict(g.Bench, samples[base][g.Bench], samples[head][g.Bench], tol, inflate)
		fmt.Printf("%-4s  %-32s base %s  head %s  ratio %s  allocs %d→%d\n",
			r.status, r.bench, cell(r.baseNs, 1), cell(r.headNs, 1), cell(r.ratio, 3), r.baseAllocs, r.headAllocs)
		failed = failed || r.status == "FAIL"
		rows = append(rows, r)
	}
	summary := fmt.Sprintf("all %d gates within +%.0f%% of base %s", len(rows), tol, rev)
	if failed {
		summary = fmt.Sprintf("FAILED against base %s (ns/op ratio +%.0f%%, allocs +1%%)", rev, tol)
	}
	writeStepSummary("benchcheck: "+summary, rows)
	fmt.Println("benchcheck:", summary)
	return failed, nil
}

// extractBase picks the base revision, writes its tree into tmp/base and
// returns the revision and that directory.
func extractBase(ctx context.Context, tmp string) (rev, root string, err error) {
	rev = "HEAD^1"
	err = exec.CommandContext(ctx, "git", "diff", "--quiet", "HEAD").Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit) && exit.ExitCode() == 1:
		rev = "HEAD" // uncommitted changes to tracked files
	case err != nil:
		return "", "", fmt.Errorf("git diff --quiet HEAD: %v", err)
	}
	hash, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("base %s: not found (CI needs fetch-depth: 2): %v", rev, err)
	}
	// Run from a subdirectory, git archive takes only that subtree, with
	// paths relative to it, so the base tree's root matches the current one.
	archive, err := exec.CommandContext(ctx, "git", "archive", "--format=tar", rev).Output()
	if err != nil {
		return "", "", fmt.Errorf("git archive %s: %v", rev, err)
	}
	dir := filepath.Join(tmp, "base")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", "", err
	}
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	untar.Stdin = bytes.NewReader(archive)
	if out, err := untar.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("extract %s: %v\n%s", rev, err, out)
	}
	return fmt.Sprintf("%s (%s)", rev, bytes.TrimSpace(hash)), dir, nil
}

// build compiles each gate package's test binary once per side into tmp and
// returns the binaries by side and package. A package the base tree lacks
// gets no base binary, so its gates come out "new".
func build(ctx context.Context, gates []gate, roots [2]string, tmp string) ([2]map[string]string, error) {
	bins := [2]map[string]string{{}, {}}
	for side, root := range roots {
		for _, g := range gates {
			if bins[side][g.Package] != "" {
				continue // built for an earlier gate
			}
			dir := filepath.Join(root, g.Package)
			if _, err := os.Stat(dir); side == base && errors.Is(err, fs.ErrNotExist) {
				continue
			}
			bin := filepath.Join(tmp, fmt.Sprintf("%d-%d.test", side, len(bins[side])))
			cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, ".")
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				return bins, fmt.Errorf("go test -c in %s: %v\n%s", dir, err, out)
			}
			bins[side][g.Package] = bin
		}
	}
	return bins, nil
}

// measure runs every gate on both sides in n pairs and returns each side's
// samples per benchmark, in pair order. The two runs of a pair are adjacent;
// pair k runs base first when k is even and head first when it is odd. Each
// pair sweeps all gates in turn, so a slow excursion of a few seconds spoils
// at most a pair or two of any one gate.
func measure(gates []gate, n int, run func(side int, g gate) (sample, bool, error)) ([2]map[string][]sample, error) {
	samples := [2]map[string][]sample{{}, {}}
	for k := 0; k < n; k++ {
		order := [2]int{base, head}
		if k%2 == 1 {
			order = [2]int{head, base}
		}
		for _, g := range gates {
			for _, side := range order {
				s, ok, err := run(side, g)
				if err != nil {
					return samples, err
				}
				if ok {
					samples[side][g.Bench] = append(samples[side][g.Bench], s)
				}
			}
		}
	}
	return samples, nil
}

// runBinary runs gate g once from its package directory dir; ok is false
// when the binary has no such benchmark.
func runBinary(ctx context.Context, bin, dir string, g gate) (s sample, ok bool, err error) {
	cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", "^"+g.Bench+"$",
		"-test.benchtime", g.Benchtime, "-test.count", "1", "-test.benchmem", "-test.timeout", "10m")
	cmd.Dir = dir
	raw, err := cmd.CombinedOutput()
	if err != nil {
		return s, false, fmt.Errorf("%s -test.bench %s: %v\n%s", bin, g.Bench, err, raw)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || m[1] != g.Bench {
			continue
		}
		s.ns, err = strconv.ParseFloat(m[2], 64)
		if err != nil {
			return s, false, fmt.Errorf("parse ns/op in %q: %v", line, err)
		}
		s.allocs, _ = strconv.ParseInt(m[3], 10, 64) // "" (no allocs column) reads as 0
		return s, true, nil
	}
	return s, false, nil
}

// row is one gate's verdict. The ns/op figures are per-side medians and
// ratio is the median per-pair head/base ratio; allocs are per-side minima.
type row struct {
	bench, status          string
	baseNs, headNs, ratio  float64
	baseAllocs, headAllocs int64
}

// verdict judges one gate from its paired samples (head ns/op multiplied by
// inflate): "FAIL" when head has no result, its median ratio exceeds
// 1+tol/100 or its allocations exceed allocLimit of the base's; "new" when
// only the base has no result; "ok" otherwise.
func verdict(bench string, b, h []sample, tol, inflate float64) row {
	r := row{bench: bench, status: "FAIL"}
	r.baseNs, r.baseAllocs = summarize(b, 1)
	r.headNs, r.headAllocs = summarize(h, inflate)
	switch {
	case len(h) == 0:
	case len(b) == 0:
		r.status = "new"
	default:
		ratios := make([]float64, min(len(b), len(h)))
		for i := range ratios {
			ratios[i] = h[i].ns * inflate / b[i].ns
		}
		r.ratio = median(ratios)
		if r.ratio <= 1+tol/100 && r.headAllocs <= allocLimit(r.baseAllocs) {
			r.status = "ok"
		}
	}
	return r
}

// summarize returns the median ns/op of ss times scale and their fewest
// allocs/op, or zeros for no samples.
func summarize(ss []sample, scale float64) (ns float64, allocs int64) {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.ns * scale
		if i == 0 || s.allocs < allocs {
			allocs = s.allocs
		}
	}
	return median(xs), allocs
}

// allocLimit is the most allocs/op head may make against the base's count:
// that count plus 1%, rounded up, so a 0-alloc gate allows none.
func allocLimit(ceiling int64) int64 {
	return ceiling + (ceiling+99)/100
}

// median returns the middle element of xs (0 if empty), sorting it in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// cell formats a figure, or "-" for a side without results.
func cell(v float64, prec int) string {
	if v == 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// writeStepSummary appends a markdown table of the verdicts to the file
// named by $GITHUB_STEP_SUMMARY, the GitHub Actions job-summary sink.
// Outside CI (variable unset) it does nothing; write errors are reported
// but never change the gate's exit status.
func writeStepSummary(title string, rows []row) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", title)
	sb.WriteString("| benchmark | base ns/op | head ns/op | median ratio | allocs base→head | status |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %d→%d | %s |\n",
			r.bench, cell(r.baseNs, 1), cell(r.headNs, 1), cell(r.ratio, 3), r.baseAllocs, r.headAllocs, r.status)
	}
	sb.WriteString("\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		_, err = f.WriteString(sb.String())
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: step summary:", err)
	}
}
