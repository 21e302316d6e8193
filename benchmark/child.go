package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"leakyway/internal/experiments"
)

// childFlag marks a re-executed round process; its argument is the JSON
// childSpec.
const childFlag = "-child"

// buildDir holds everything the benchmark writes: its binary, the Go build
// cache, per-round data directories and spans. It is relative to the
// working directory, which is the repository root.
const buildDir = ".bench_build"

// childSpec is what the parent hands one round process.
type childSpec struct {
	Workload string  `json:"workload"`
	Round    int     `json:"round"`
	Seed     int64   `json:"seed"`
	Budget   float64 `json:"budget_s"` // seconds of measurement
	Traced   bool    `json:"traced"`
	Work     string  `json:"work"` // directory for per-round data
	Sizes    sizes   `json:"sizes"`
	// StartUnixNano is when the parent started the process; set-up time is
	// measured from it, so process start and package init count.
	StartUnixNano int64 `json:"start_unix_nano"`
}

// sizes fix the work per operation. Production runs use defaultSizes; the
// smoke test shrinks them.
type sizes struct {
	Rounds     int `json:"rounds"`      // child processes per workload in an untraced run
	StreamBits int `json:"stream_bits"` // bits per channel-stream transmission
	Prime      int `json:"prime"`       // results daemon-saturate primes before measuring
	MinJobs    int `json:"min_jobs"`    // daemon-mixed arrivals per round, at least
	MinHits    int `json:"min_hits"`    // daemon-saturate hits per round, at least
}

// Three rounds make set-up time a median, so one slow process start cannot
// move it.
var defaultSizes = sizes{Rounds: 3, StreamBits: 1_000_000, Prime: 8, MinJobs: 1, MinHits: 1}

// opRecord is one operation of a round.
type opRecord struct {
	Kind    string  `json:"kind"`
	Input   string  `json:"input"` // label of the generated input
	Seconds float64 `json:"s"`     // wall time
	// Digest identifies the output; the parent compares it across rounds
	// (the same input must give the same output) and against the pins.
	Digest string `json:"digest,omitempty"`
}

// roundResult is what a round process reports.
type roundResult struct {
	Workload string     `json:"workload"`
	Round    int        `json:"round"`
	Traced   bool       `json:"traced"`
	SetupS   float64    `json:"setup_s"`
	Ops      []opRecord `json:"ops"`
	// Calibrations are the calibration loop's times (calib.go).
	Calibrations []float64 `json:"calibrations"`
	// RateOps operations completed in RateSeconds give ops_per_s.
	RateOps     int     `json:"rate_ops"`
	RateSeconds float64 `json:"rate_s"`
	// AuxOps in AuxSeconds is daemon-saturate's hit-phase throughput.
	AuxOps     int      `json:"aux_ops,omitempty"`
	AuxSeconds float64  `json:"aux_s,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// Open-loop validity and polling effort (daemon workloads).
	LateMaxMs  float64 `json:"late_max_ms,omitempty"`
	Polls      int     `json:"polls,omitempty"`
	PolledJobs int     `json:"polled_jobs,omitempty"`
	// Go runtime deltas over the measured phase.
	GCCycles   uint32             `json:"gc_cycles"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCPauseNs  uint64             `json:"gc_pause_ns"`
	MeasureOps int                `json:"measure_ops"`
	Spans      []span             `json:"spans,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"` // probes only
	PeakRSSMB  float64            `json:"-"`               // filled in by the parent
}

// primaryTimes returns the wall times of the round's primary operations,
// the ones op_p50_s is taken over.
func (r roundResult) primaryTimes() []float64 {
	w, _ := workloadByName(r.Workload)
	var xs []float64
	for _, op := range r.Ops {
		if op.Kind == w.primary {
			xs = append(xs, op.Seconds)
		}
	}
	return xs
}

// scale converts the round's wall times to reference seconds (calib.go).
// Every workload round calibrates at least once, in setupDone; the probes
// do not calibrate, and their times are not scaled.
func (r roundResult) scale() float64 {
	if len(r.Calibrations) == 0 {
		return 1
	}
	return calRefSeconds / median(r.Calibrations)
}

// roundCtx is the running round inside a child process.
type roundCtx struct {
	spec  childSpec
	start time.Time
	tr    *tracer

	mu  sync.Mutex
	res roundResult
}

// ok records a successful operation.
func (rc *roundCtx) ok(op opRecord) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Attempted++
	rc.res.Ops = append(rc.res.Ops, op)
}

// fail records a failed operation; it is excluded from the timings.
func (rc *roundCtx) fail(input string, format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Attempted++
	rc.res.Failed++
	rc.res.Failures = append(rc.res.Failures, input+": "+fmt.Sprintf(format, args...))
}

// invalidate counts n measured operations as failed.
func (rc *roundCtx) invalidate(n int, format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Failed += n
	rc.res.Failures = append(rc.res.Failures, fmt.Sprintf(format, args...))
}

// polled counts the status polls one job needed.
func (rc *roundCtx) polled(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Polls += n
	rc.res.PolledJobs++
}

// setupDone stamps the end of the round's first, cold operation and
// calibrates right after it.
func (rc *roundCtx) setupDone() {
	rc.res.SetupS = time.Since(rc.start).Seconds()
	rc.calibrate()
}

// calibrate times the calibration loop once. Call it only from the round's
// own goroutine while no operation is in flight, so that the loop has the
// process to itself.
func (rc *roundCtx) calibrate() {
	rc.res.Calibrations = append(rc.res.Calibrations, calibrationLoop())
}

// measure runs the measured phase and records the Go runtime's GC and
// allocation deltas over it.
func (rc *roundCtx) measure(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := rc.res.Attempted
	fn()
	runtime.ReadMemStats(&after)
	rc.res.GCCycles = after.NumGC - before.NumGC
	rc.res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rc.res.GCPauseNs = after.PauseTotalNs - before.PauseTotalNs
	rc.res.MeasureOps = rc.res.Attempted - ops
}

// rateFromOps sets the throughput to the kind's operations per second spent
// in them, for closed loops with one caller.
func (rc *roundCtx) rateFromOps(kind string) {
	for _, op := range rc.res.Ops {
		if op.Kind == kind {
			rc.res.RateOps++
			rc.res.RateSeconds += op.Seconds
		}
	}
}

// budget is the round's measurement time.
func (rc *roundCtx) budget() time.Duration {
	return time.Duration(rc.spec.Budget * float64(time.Second))
}

// workDir returns a fresh directory for this round's data.
func (rc *roundCtx) workDir() (string, error) {
	return os.MkdirTemp(rc.spec.Work, rc.spec.Workload+"-")
}

// inputSeed derives the seed of one generated input from the run seed, so
// the same run seed always gives the same inputs.
func inputSeed(seed int64, workload, kind string, i int) int64 {
	return experiments.SplitSeed(seed, workload, kind, strconv.Itoa(i))
}

// closedLoop calls op(i) for i = 0, 1, ... until the round's budget has
// passed, calibrating after each call; it always makes at least one call.
func (rc *roundCtx) closedLoop(op func(i int)) {
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < rc.budget(); i++ {
		op(i)
		rc.calibrate()
	}
}

// workload is one traffic mix: how a round runs it, and the operation kind
// op_p50_s is taken over. An open loop's throughput is set by its arrival
// schedule, not by the host's speed, so it is not scaled.
type workload struct {
	name, primary string
	open          bool
	run           func(*roundCtx) error
}

// workloads are listed in round-robin order.
var workloads = []workload{
	{"paper-full", "suite", false, runPaperFull},
	{"channel-stream", "transmit", false, runChannelStream},
	{"daemon-mixed", "miss", true, runDaemonMixed},
	{"daemon-saturate", "miss", false, runDaemonSaturate},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// childMain runs one round and prints its result as JSON. Diagnostics go
// to standard error.
func childMain(arg string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	w, ok := workloadByName(spec.Workload)
	if spec.Workload == probesName {
		w, ok = workload{name: probesName, run: runProbes}, true
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark child: unknown workload", spec.Workload)
		return 2
	}
	rc := &roundCtx{spec: spec, start: time.Unix(0, spec.StartUnixNano)}
	rc.res = roundResult{Workload: spec.Workload, Round: spec.Round, Traced: spec.Traced}
	if spec.Traced {
		rc.tr = newTracer()
	}
	if err := w.run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", spec.Workload, err)
		return 1
	}
	rc.res.Spans = rc.tr.all()
	if err := json.NewEncoder(stdout).Encode(rc.res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// cleanupDir removes a round's data directory; a failure only leaves
// garbage under the build directory.
func cleanupDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: removing", filepath.Base(dir)+":", err)
	}
}
