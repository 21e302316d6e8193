package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"leakyway/internal/experiments"
	"leakyway/internal/platform"
	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
)

// Submission is the POST /v1/jobs request body: one scenario template plus
// the run parameters that shape its output. Every field below participates
// in the result-cache key, because every field can change the bytes an
// identical resubmission should be served from cache.
type Submission struct {
	// Template is the scenario-DSL document (YAML, or JSON when Filename
	// ends in .json). It is validated by the strict loader before the job
	// is accepted; a malformed template is rejected with the field path.
	Template string `json:"template"`
	// Filename labels parse errors and selects the format (default
	// "template.yaml").
	Filename string `json:"filename,omitempty"`
	// Seed is the master seed (the CLI's -seed).
	Seed int64 `json:"seed"`
	// Jobs is accepted for compatibility with the CLI's -jobs and
	// range-checked, but does not steer the run: every execution draws
	// its engine workers from the daemon's shared budget (Config.Workers).
	// 0 means 1. It stays in the cache key (see jobKey) so results stored
	// under it remain valid.
	Jobs int `json:"jobs,omitempty"`
	// Quick runs reduced trial counts (the CLI's -quick).
	Quick bool `json:"quick,omitempty"`
	// Trace additionally records a cycle-level trace and stores it as the
	// "trace" artifact (Chrome trace-event JSON).
	Trace bool `json:"trace,omitempty"`
	// Platform is "skylake", "kabylake" or "both" (default both); ignored
	// when the template pins its own platform section.
	Platform string `json:"platform,omitempty"`
}

// maxEngineJobs bounds the jobs value a submission may carry.
const maxEngineJobs = 64

// normalize canonicalizes defaulted fields (they feed the cache key, so
// "jobs omitted" and "jobs: 1" must digest identically) and validates the
// ranges the engine cannot.
func (sub *Submission) normalize() error {
	if sub.Jobs <= 0 {
		sub.Jobs = 1
	}
	if sub.Jobs > maxEngineJobs {
		return fmt.Errorf("jobs: %d exceeds the per-run limit of %d", sub.Jobs, maxEngineJobs)
	}
	if sub.Filename == "" {
		sub.Filename = "template.yaml"
	}
	switch sub.Platform {
	case "":
		sub.Platform = "both"
	case "both":
	default:
		if _, ok := platform.ByName(sub.Platform); !ok {
			return fmt.Errorf("platform: unknown platform %q (want skylake, kabylake or both)", sub.Platform)
		}
	}
	return nil
}

// jobKey computes the content-addressed result-cache key:
//
//	sha256(canonical-template ‖ seed ‖ jobs ‖ quick ‖ trace ‖ platform ‖ engine-version)
//
// The template contribution is scenario.CanonicalBytes — the same
// canonical-marshal path `leakyway -template validate` fingerprints — so
// any surface form of the same scenario (YAML or JSON, any field order)
// keys identically, and a CLI-printed fingerprint corresponds to exactly
// one template contribution here. EngineVersion pins the code: bumping it
// invalidates every cached result.
func jobKey(spec *scenario.Spec, sub Submission) string {
	h := sha256.New()
	h.Write(scenario.CanonicalBytes(spec))
	fmt.Fprintf(h, "\x00seed=%d\x00jobs=%d\x00quick=%t\x00trace=%t\x00platform=%s\x00engine=%s",
		sub.Seed, sub.Jobs, sub.Quick, sub.Trace, sub.Platform, experiments.EngineVersion)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Job is one accepted submission's record. Several jobs may share one
// execution (single-flight dedup); each keeps its own identity so every
// submitter can poll, fetch artifacts and cancel independently.
type Job struct {
	ID     string
	Key    string
	Status string
	Error  string
	// Attempts counts the store publishes tried for the job's result; the
	// simulation itself runs once.
	Attempts int
	// CacheHit marks a job answered from the store without simulation.
	CacheHit bool
	// Coalesced marks a job attached to an already-in-flight execution.
	Coalesced bool
	// canceled is the job's own cancellation mark; the shared execution
	// is cancelled only when every attached job is.
	canceled bool
	exec     *execution
	sub      Submission
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	switch j.Status {
	case StatusDone, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// execution is one scheduled simulation: the single-flight unit all jobs
// with the same key attach to.
type execution struct {
	key  string
	sub  Submission
	spec *scenario.Spec
	jobs []*Job
	// cancel aborts the simulation; set from the moment a worker starts
	// the execution.
	cancel context.CancelFunc
	// done closes when the execution reaches a terminal state.
	done chan struct{}
	// enqueuedAt stamps admission; queue-wait and job-latency histograms
	// measure from it.
	enqueuedAt time.Time
	// prog is the live progress tracker the engine publishes checkpoints
	// into; progLog is its sampled history. Both are assigned once at
	// construction and never reassigned, so SSE handlers read them
	// without a lock.
	prog    *telemetry.Progress
	progLog *progressLog
}

// newExecution builds the single-flight unit with its progress plumbing
// attached (spec may be nil during journal replay; recovery fills it in).
func newExecution(key string, sub Submission, spec *scenario.Spec) *execution {
	return &execution{
		key:     key,
		sub:     sub,
		spec:    spec,
		done:    make(chan struct{}),
		prog:    telemetry.NewProgress(),
		progLog: &progressLog{},
	}
}

// Result is one completed simulation's artifact set.
type Result struct {
	// Report is the rendered experiment report (banner included).
	Report []byte
	// Metrics is the canonical JSON metrics export — byte-identical to
	// `leakyway -json` for the same template, seed and platform.
	Metrics []byte
	// Trace is the Chrome trace-event export; nil unless requested.
	Trace []byte
	// Progress is the sampled progress history (JSONL of progressEvent
	// lines); the daemon fills it from the execution's recorder, stores
	// it as the "progress" artifact, and replays it over SSE after the
	// job completes. Nil when no samples were taken.
	Progress []byte
	// AssertFailed / AssertTotal summarize the template's assertions.
	AssertFailed int
	AssertTotal  int
}

// Runner executes one accepted submission. The daemon uses EngineRunner;
// tests substitute stubs. The context carries the per-job deadline and is
// cancelled on job cancellation and forced shutdown; implementations must
// return promptly once it is done. prog, when non-nil, should receive
// live progress checkpoints (EngineRunner threads it into the engine
// context); a stub may ignore it.
type Runner func(ctx context.Context, sub Submission, spec *scenario.Spec, prog *telemetry.Progress) (*Result, error)
