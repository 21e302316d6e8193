// Package service implements leakywayd: a crash-safe HTTP experiment
// service over the deterministic engine. Submissions flow through a
// bounded queue with backpressure into a fixed worker pool; results land
// in a content-addressed store keyed on the canonical template and run
// parameters, so an identical resubmission is served from cache without
// re-simulating. A write-ahead journal makes accepted work durable: a
// job acknowledged with 202 survives SIGKILL and completes after
// restart, and SIGTERM drains the queue before exiting.
//
// The daemon is observable while it runs: every operational counter
// lives in a telemetry registry exposed as Prometheus text on
// /metricsz, each execution publishes progress checkpoints streamed
// over SSE from /v1/jobs/{id}/events, and operational logging is
// structured (log/slog) with job-scoped loggers.
package service

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"leakyway/internal/experiments"
	"leakyway/internal/iofault"
	"leakyway/internal/scenario"
)

// Config parameterizes a Server. The zero value plus a DataDir is usable;
// New fills in defaults.
type Config struct {
	// DataDir holds the result store and the journal.
	DataDir string
	// Workers is the worker-pool size and the engine worker budget that
	// every running execution shares (default 2): each execution holds
	// one token and its trial shards borrow the tokens the others leave
	// idle, so a lone job runs on every worker.
	Workers int
	// QueueCap bounds the number of queued-not-yet-running executions;
	// beyond it submissions get 429 + Retry-After (default 64).
	QueueCap int
	// JobTimeout is the deadline of an execution's one simulation
	// (default 10m).
	JobTimeout time.Duration
	// MaxRetries is how many times a failed store publish is retried with
	// jittered exponential backoff before the job fails (default 2;
	// negative disables retries). The simulation itself runs once: its
	// result or error is a pure function of the submission.
	MaxRetries int
	// RetryBase is the publish backoff base (default 100ms).
	RetryBase time.Duration
	// Stall delays each simulation before it touches the engine. Test and
	// smoke hook: it widens the window in which a crash interrupts an
	// accepted-but-incomplete job.
	Stall time.Duration
	// ProgressInterval is the sampling cadence for per-job progress:
	// both the recorder that builds the stored "progress" artifact and
	// the live SSE stream tick at this rate (default 250ms).
	ProgressInterval time.Duration
	// Runner executes submissions (default EngineRunner).
	Runner Runner
	// FS is the filesystem the store and journal write through (default
	// the real OS). Chaos tests swap in an iofault.Injector to drive the
	// production durability paths through hostile-disk conditions.
	FS iofault.FS
	// StoreQuotaBytes caps the result store's total artifact bytes;
	// exceeding it evicts least-recently-accessed unpinned entries. Zero
	// means unlimited.
	StoreQuotaBytes int64
	// StoreMaxEntries caps the result store's entry count the same way.
	StoreMaxEntries int
	// WALRotateBytes is the journal size past which the server compacts
	// it online to exactly the live state (default 4 MiB; negative
	// disables rotation).
	WALRotateBytes int64
	// ProbeInterval is how often a degraded server probes the disk to
	// decide whether to resume admissions (default 1s).
	ProbeInterval time.Duration
	// Logger receives structured operational logs (default
	// slog.Default()). The server derives job-scoped child loggers from
	// it, so every line about an execution carries its job ID and key.
	Logger *slog.Logger
}

// Server is the daemon's core. It owns the job table, the single-flight
// index, the bounded queue, the store and the journal.
type Server struct {
	cfg     Config
	store   *Store
	journal *Journal
	met     *serverMetrics
	budget  *experiments.Budget

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*execution // key → the execution new jobs attach to
	queued   int                   // executions accepted but not yet running
	seq      int64
	draining bool

	queue chan *execution

	// Degraded mode: set when a durability write (journal append, store
	// publish) fails. Admissions answer 503 + Retry-After while reads,
	// SSE and running jobs continue; a probe goroutine exercises the
	// failing paths until they heal, then clears the state.
	healthMu       sync.Mutex
	degraded       bool
	degradedReason string
	degradedSince  time.Time
	probeWG        sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New opens the data directory, reads the journal, verifies store
// integrity, replays the journal — re-enqueueing every accepted job that
// has no terminal record — and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = 250 * time.Millisecond
	}
	if cfg.Runner == nil {
		cfg.Runner = EngineRunner
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.FS == nil {
		cfg.FS = iofault.OS()
	}
	if cfg.WALRotateBytes == 0 {
		cfg.WALRotateBytes = 4 << 20
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}

	s := &Server{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		inflight: map[string]*execution{},
	}
	s.met = newServerMetrics(s)
	s.budget = experiments.NewBudget(cfg.Workers, s.met.helpersRecruited)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	jpath := filepath.Join(cfg.DataDir, "journal.jsonl")
	entries, err := replayJournal(cfg.FS, jpath)
	if err != nil {
		return nil, err
	}
	// Each submission counts as one access to its key, so the store's
	// recency order after a restart is the order of each key's last
	// submission.
	var recent []string
	for _, e := range entries {
		if e.Op == opAccept {
			recent = append(recent, e.Key)
		}
	}
	store, removed, err := OpenStore(cfg.FS, filepath.Join(cfg.DataDir, "store"), StoreOptions{
		QuotaBytes:   cfg.StoreQuotaBytes,
		MaxEntries:   cfg.StoreMaxEntries,
		Logger:       cfg.Logger,
		Evictions:    s.met.storeEvictions,
		EvictedBytes: s.met.storeEvictedBytes,
	}, recent)
	if err != nil {
		return nil, err
	}
	s.store = store
	for _, r := range removed {
		cfg.Logger.Warn("store integrity sweep removed entry", "entry", r.Entry, "reason", r.Reason)
		s.met.sweepRemoved.Inc()
	}

	recovered := s.replay(entries)

	// The channel must hold everything admission can let in: QueueCap
	// fresh executions plus however many the journal recovered, so the
	// recovery enqueue below can never block.
	s.queue = make(chan *execution, cfg.QueueCap+len(recovered))

	// Compact: the rewritten journal carries exactly the live state.
	s.journal, err = rewriteJournal(cfg.FS, jpath, s.liveEntries(), cfg.WALRotateBytes)
	if err != nil {
		return nil, err
	}
	s.journal.fsyncHist = s.met.walFsync
	s.journal.rotations = s.met.walRotations

	s.mu.Lock()
	for _, exec := range recovered {
		s.admitLocked(exec)
		s.met.recovered.Inc()
		cfg.Logger.Info("recovery re-enqueued job", "job", exec.jobs[0].ID, "key", shortKey(exec.key))
	}
	s.mu.Unlock()

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// shortKey abbreviates a cache key for log lines.
func shortKey(key string) string {
	h := hexOf(key)
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}

// replay rebuilds the job table from journal entries and returns the
// executions to re-enqueue: accepted jobs with no terminal record whose
// result is not already in the store. Ops it does not know (the "clean"
// marker older journals end with, probes) are skipped.
func (s *Server) replay(entries []journalEntry) []*execution {
	byKey := map[string]*execution{}
	var order []string
	for _, e := range entries {
		switch e.Op {
		case opAccept:
			if e.Sub == nil {
				continue
			}
			j := &Job{ID: e.ID, Key: e.Key, Status: StatusQueued, sub: *e.Sub}
			s.jobs[j.ID] = j
			if n := seqOf(e.ID); n > s.seq {
				s.seq = n
			}
			exec := byKey[e.Key]
			if exec == nil {
				exec = newExecution(e.Key, *e.Sub, nil)
				byKey[e.Key] = exec
				order = append(order, e.Key)
			}
			j.exec = exec
			exec.jobs = append(exec.jobs, j)
		case opDone, opFail:
			// The record ends every job of its key still open, never one
			// an earlier record ended: a job that failed stays failed when
			// a later job of its key succeeds.
			if exec := byKey[e.Key]; exec != nil {
				for _, j := range exec.jobs {
					if j.terminal() {
						continue
					}
					j.Status = StatusDone
					if e.Op == opFail {
						j.Status, j.Error = StatusFailed, e.Err
					}
				}
			}
		case opCancel:
			if j := s.jobs[e.ID]; j != nil {
				j.Status = StatusCanceled
				j.canceled = true
			}
		}
	}

	var recovered []*execution
	for _, key := range order {
		exec := byKey[key]
		var live []*Job
		for _, j := range exec.jobs {
			if !j.terminal() {
				live = append(live, j)
			}
		}
		if len(live) == 0 {
			continue
		}
		// The result may have been stored in the crash window between
		// store.Put and the journal's done entry; serve it, don't re-run.
		if s.store.Has(key) {
			for _, j := range live {
				j.Status = StatusDone
			}
			continue
		}
		spec, err := scenario.Parse([]byte(exec.sub.Template), exec.sub.Filename)
		if err != nil {
			// An accepted job had a valid template; a parse failure here
			// means the journal lied. Fail the jobs rather than crash.
			for _, j := range live {
				j.Status = StatusFailed
				j.Error = fmt.Sprintf("recovery: template no longer parses: %v", err)
			}
			continue
		}
		exec.spec = spec
		exec.jobs = live
		recovered = append(recovered, exec)
	}
	return recovered
}

// liveEntries renders the current job table as a minimal journal: one
// accept per job, plus its terminal record if it has one.
func (s *Server) liveEntries() []journalEntry {
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	// Numerically: "j-1000000" follows "j-999999". The order is both the
	// replay order and the store's recency order after a restart.
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(seqOf(a.ID), seqOf(b.ID)) })
	var entries []journalEntry
	for _, j := range jobs {
		sub := j.sub
		entries = append(entries, journalEntry{Op: opAccept, ID: j.ID, Key: j.Key, Sub: &sub})
		switch j.Status {
		case StatusDone:
			entries = append(entries, journalEntry{Op: opDone, ID: j.ID, Key: j.Key})
		case StatusFailed:
			entries = append(entries, journalEntry{Op: opFail, ID: j.ID, Key: j.Key, Err: j.Error})
		case StatusCanceled:
			entries = append(entries, journalEntry{Op: opCancel, ID: j.ID, Key: j.Key})
		}
	}
	return entries
}

// seqOf parses the numeric part of a "j-000042" job ID.
func seqOf(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	return n
}

// submitError is an admission failure with an HTTP status.
type submitError struct {
	status     int
	retryAfter int // seconds; nonzero only for 429
	msg        string
}

func (e *submitError) Error() string { return e.msg }

// Submit admits one submission. The returned job is either freshly
// accepted (journalled before return), attached to an in-flight
// execution for the same key, or answered from the result store
// (Job.CacheHit). The error, if non-nil, is a *submitError.
func (s *Server) Submit(sub Submission) (*Job, error) {
	if err := sub.normalize(); err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	spec, err := scenario.Parse([]byte(sub.Template), sub.Filename)
	if err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	key := jobKey(spec, sub)

	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining {
		return nil, &submitError{status: 503, msg: "draining: not accepting new jobs"}
	}
	if deg, reason := s.DegradedState(); deg {
		s.met.rejectedDegraded.Inc()
		return nil, &submitError{
			status:     503,
			retryAfter: s.probeRetryAfter(),
			msg:        fmt.Sprintf("degraded (%s): not accepting new jobs; retry later", reason),
		}
	}

	// Cache hit: the result exists; no queueing, no simulation. The job
	// record is journalled as already-done so a restart keeps serving it.
	if s.store.Has(key) {
		j := s.newJobLocked(key, sub)
		j.Status = StatusDone
		j.CacheHit = true
		subCopy := j.sub
		if err := s.journal.Append(journalEntry{Op: opAccept, ID: j.ID, Key: key, Sub: &subCopy}); err != nil {
			return nil, s.journalFailLocked(j, err)
		}
		if err := s.journal.Append(journalEntry{Op: opDone, ID: j.ID, Key: key}); err != nil {
			return nil, s.journalFailLocked(j, err)
		}
		s.met.accepted.Inc()
		s.met.storeHit.Inc()
		s.met.completed.Inc()
		s.maybeRotateLocked()
		return j, nil
	}

	// Single-flight: someone is already computing this key; attach.
	if exec := s.inflight[key]; exec != nil {
		if exec.cancel != nil && allCanceled(exec) {
			// The execution started and then lost every job, so it is
			// being aborted and will finish canceled; the key runs again
			// once it has left the single-flight index.
			s.met.rejected.Inc()
			return nil, &submitError{
				status:     503,
				retryAfter: 1,
				msg:        "this key's execution is being canceled; retry shortly",
			}
		}
		j := s.newJobLocked(key, sub)
		j.exec = exec
		j.Coalesced = true
		subCopy := j.sub
		if err := s.journal.Append(journalEntry{Op: opAccept, ID: j.ID, Key: key, Sub: &subCopy}); err != nil {
			return nil, s.journalFailLocked(j, err)
		}
		exec.jobs = append(exec.jobs, j)
		s.met.accepted.Inc()
		s.met.storeCoalesced.Inc()
		s.maybeRotateLocked()
		return j, nil
	}

	// Backpressure: the queue is full.
	if s.queued >= s.cfg.QueueCap {
		s.met.rejected.Inc()
		retry := 1 + s.queued/s.cfg.Workers
		return nil, &submitError{
			status:     429,
			retryAfter: retry,
			msg:        fmt.Sprintf("queue full (%d queued); retry later", s.queued),
		}
	}

	j := s.newJobLocked(key, sub)
	exec := newExecution(key, j.sub, spec)
	j.exec = exec
	exec.jobs = []*Job{j}

	// Durability point: fsync the accept before acknowledging. If this
	// process dies any time after here, restart re-runs the job.
	subCopy := j.sub
	if err := s.journal.Append(journalEntry{Op: opAccept, ID: j.ID, Key: key, Sub: &subCopy}); err != nil {
		return nil, s.journalFailLocked(j, err)
	}
	s.admitLocked(exec)
	s.met.accepted.Inc()
	s.met.storeMiss.Inc()
	s.maybeRotateLocked()
	return j, nil
}

// admitLocked makes exec its key's one execution and queues it. It is
// the only way an execution enters the queue, fresh or recovered, so
// every later submission of the key attaches to it. The key is pinned
// first: it must not be evictable while a worker may be between Put and
// serving the artifacts. The send cannot block: the queue holds QueueCap
// fresh executions plus every recovered one. Caller holds s.mu.
func (s *Server) admitLocked(exec *execution) {
	s.store.Pin(exec.key)
	s.inflight[exec.key] = exec
	s.queued++
	exec.enqueuedAt = time.Now()
	s.queue <- exec
}

// journalFailLocked rolls back an admission whose WAL append failed: the
// job record is withdrawn (nothing was acknowledged), the server enters
// degraded mode, and the client gets 503 + Retry-After. Caller holds
// s.mu.
func (s *Server) journalFailLocked(j *Job, err error) *submitError {
	delete(s.jobs, j.ID)
	s.met.rejectedDegraded.Inc()
	s.enterDegraded(fmt.Sprintf("wal append: %v", err))
	return &submitError{
		status:     503,
		retryAfter: s.probeRetryAfter(),
		msg:        fmt.Sprintf("journal unavailable: %v", err),
	}
}

// maybeRotateLocked compacts the journal online once it outgrows its
// rotation threshold. Rotation failure is a durability failure: the
// server degrades rather than risk appending to a doomed segment.
// Caller holds s.mu.
func (s *Server) maybeRotateLocked() {
	if !s.journal.NeedsRotation() {
		return
	}
	before := s.journal.Size()
	if err := s.journal.Rotate(s.liveEntries()); err != nil {
		s.cfg.Logger.Error("journal rotation failed", "err", err)
		s.enterDegraded(fmt.Sprintf("wal rotate: %v", err))
		return
	}
	s.cfg.Logger.Info("journal compacted online", "before_bytes", before, "after_bytes", s.journal.Size())
}

// newJobLocked allocates the next job record. Caller holds s.mu.
func (s *Server) newJobLocked(key string, sub Submission) *Job {
	s.seq++
	j := &Job{ID: fmt.Sprintf("j-%06d", s.seq), Key: key, Status: StatusQueued, sub: sub}
	s.jobs[j.ID] = j
	return j
}

// Job returns the record for id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// snapshotJob copies a job's client-visible state under the lock.
func (s *Server) snapshotJob(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Job{}, false
	}
	return *j, true
}

// Cancel marks a job canceled. The shared execution is aborted only when
// every job attached to it is canceled — other submitters still want the
// result.
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return false, nil
	}
	if j.terminal() {
		s.mu.Unlock()
		return true, nil
	}
	j.Status = StatusCanceled
	j.canceled = true
	err := s.journal.Append(journalEntry{Op: opCancel, ID: j.ID, Key: j.Key})
	if err != nil {
		// The cancel is applied in memory but not durable; degrade so the
		// probe chases the disk while running work continues.
		s.enterDegraded(fmt.Sprintf("wal append: %v", err))
	}
	var abort context.CancelFunc
	if exec := j.exec; exec != nil && allCanceled(exec) {
		abort = exec.cancel
	}
	s.mu.Unlock()
	s.met.canceled.Inc()
	if abort != nil {
		abort()
	}
	return true, err
}

// Drain stops admissions, lets the workers finish every queued and
// running execution, and closes the journal. It is the SIGTERM path;
// after it returns the process can exit 0 with no accepted work lost:
// every job has its terminal record, so a restart recovers nothing.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	s.wg.Wait()

	// Stop any degraded-mode probe before touching the journal for the
	// last time; probes append through the same handle.
	s.baseCancel()
	s.probeWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}

// Kill abandons the server without draining: running executions are
// cancelled and nothing further is journalled, so a restart from the
// same DataDir must recover the incomplete jobs. Test hook simulating a
// hard crash as closely as a same-process API can.
func (s *Server) Kill() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	s.probeWG.Wait()
	s.journal.Close()
}

// worker is the pool loop: one execution at a time off the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for exec := range s.queue {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.met.queueWait.ObserveSince(exec.enqueuedAt)
		if s.baseCtx.Err() != nil {
			return // Kill: abandon without journalling, recovery will rerun
		}
		s.met.workersBusy.Add(1)
		s.runExecution(exec)
		s.met.workersBusy.Add(-1)
	}
}

// runExecution drives one execution to a terminal state: it runs the
// Runner once, under a deadline and with panic containment, and publishes
// a result to the store, retrying only the publish. A failed simulation
// is final: the engine is deterministic, so a re-run can only fail again.
func (s *Server) runExecution(exec *execution) {
	defer close(exec.done)

	// Submit appends coalesced jobs to exec.jobs under s.mu.
	s.mu.Lock()
	canceled := allCanceled(exec)
	for _, j := range exec.jobs {
		if !j.canceled {
			j.Status = StatusRunning
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	// A set cancel also marks the execution started until it finishes.
	exec.cancel = cancel
	s.mu.Unlock()

	var res *Result
	err := context.Canceled // every job was canceled while queued
	if !canceled {
		res, err = s.simulate(ctx, exec)
	}
	if err == nil {
		if err = s.publish(exec, res); err == nil {
			s.finish(exec, StatusDone, "")
			return
		}
	}
	s.mu.Lock()
	canceled = allCanceled(exec)
	s.mu.Unlock()
	switch {
	case s.baseCtx.Err() != nil:
		// Kill: abandon silently; the journal still holds the accept, so
		// restart recovers this job.
	case canceled:
		s.finish(exec, StatusCanceled, "")
	default:
		s.finish(exec, StatusFailed, err.Error())
	}
}

// allCanceled reports whether every job attached to exec is canceled, so
// no submitter still wants its result. Caller holds s.mu.
func allCanceled(exec *execution) bool {
	for _, j := range exec.jobs {
		if !j.canceled {
			return false
		}
	}
	return true
}

// simulate runs the Runner once with panic containment: a panic in the
// runner (or the engine under it) fails the execution; it never takes
// the worker — or the daemon — down. While it runs, a recorder goroutine
// samples the execution's progress tracker into the progress log that
// becomes the stored "progress" artifact. The context carries the
// server's engine worker budget to the engine.
func (s *Server) simulate(ctx context.Context, exec *execution) (res *Result, err error) {
	exec.progLog.begin()
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(s.cfg.ProgressInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				exec.progLog.record(exec.prog.Snapshot())
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
		exec.progLog.record(exec.prog.Snapshot())
		if r := recover(); r != nil {
			s.met.panics.Inc()
			res, err = nil, fmt.Errorf("runner panic: %v", r)
		}
		if err == nil {
			res.Progress = exec.progLog.marshal()
		}
	}()
	if s.cfg.Stall > 0 {
		select {
		case <-time.After(s.cfg.Stall):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.cfg.Runner(experiments.WithBudget(ctx, s.budget), exec.sub, exec.spec, exec.prog)
}

// publish stores the execution's result, retrying a failed Put up to
// MaxRetries times with jittered exponential backoff. A failed Put is a
// disk problem: each one degrades admissions until the probe sees the
// disk heal. Every attached job's Attempts counts the Puts tried.
func (s *Server) publish(exec *execution, res *Result) error {
	for attempt := 1; ; attempt++ {
		s.mu.Lock()
		firstID := exec.jobs[0].ID
		for _, j := range exec.jobs {
			if !j.canceled {
				j.Attempts = attempt
			}
		}
		s.mu.Unlock()
		err := s.store.Put(exec.key, experiments.EngineVersion, res)
		if err == nil {
			return nil
		}
		s.enterDegraded(fmt.Sprintf("store put: %v", err))
		err = fmt.Errorf("store: %w", err)
		if attempt > s.cfg.MaxRetries {
			return err
		}
		s.met.retries.Inc()
		backoff := s.cfg.RetryBase << uint(attempt-1)
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		s.cfg.Logger.Warn("store publish failed; retrying", "job", firstID, "key", shortKey(exec.key),
			"attempt", attempt, "err", err, "backoff", backoff)
		select {
		case <-time.After(backoff):
		case <-s.baseCtx.Done():
			return err
		}
	}
}

// finish journals the execution's done or fail record, moves every
// non-canceled job on it to status, clears the single-flight slot and
// releases the execution's eviction pin. A journal write failure here is
// logged and degrades admissions, but is not fatal to the job: the store
// already holds the result (for done), so the worst case after a crash
// is a redundant re-check against the store.
func (s *Server) finish(exec *execution, status, errMsg string) {
	if h := s.met.jobDuration(status); h != nil {
		h.ObserveSince(exec.enqueuedAt)
	}
	s.store.Unpin(exec.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A canceled execution needs no record of its own: every job on it
	// was canceled, and Cancel journalled each one by ID.
	if status != StatusCanceled {
		e := journalEntry{Op: opDone, Key: exec.key, Err: errMsg}
		if status == StatusFailed {
			e.Op = opFail
		}
		if err := s.journal.Append(e); err != nil {
			s.cfg.Logger.Error("journal append failed", "op", e.Op, "key", shortKey(exec.key), "err", err)
			s.enterDegraded(fmt.Sprintf("wal append: %v", err))
		} else {
			s.maybeRotateLocked()
		}
	}
	for _, j := range exec.jobs {
		if j.canceled {
			continue
		}
		j.Status = status
		j.Error = errMsg
		switch status {
		case StatusDone:
			s.met.completed.Inc()
		case StatusFailed:
			s.met.failed.Inc()
		}
	}
	delete(s.inflight, exec.key)
}

// queueDepth returns the current queued-execution count (tests).
func (s *Server) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// DegradedState reports whether the server is refusing admissions over a
// disk problem, and why.
func (s *Server) DegradedState() (bool, string) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.degraded, s.degradedReason
}

// probeRetryAfter is the Retry-After hint for degraded 503s: one probe
// cycle, rounded up to a whole second.
func (s *Server) probeRetryAfter() int {
	secs := int((s.cfg.ProbeInterval + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// enterDegraded flips the server into degraded mode (idempotent: the
// first reason wins until recovery) and starts the probe goroutine that
// will clear it.
func (s *Server) enterDegraded(reason string) {
	s.healthMu.Lock()
	if s.degraded {
		s.healthMu.Unlock()
		return
	}
	s.degraded = true
	s.degradedReason = reason
	s.degradedSince = time.Now()
	s.healthMu.Unlock()
	s.met.degradedEntered.Inc()
	s.cfg.Logger.Error("entering degraded mode: admissions suspended until a disk probe succeeds",
		"reason", reason)
	s.probeWG.Add(1)
	go s.probeLoop()
}

// exitDegraded clears degraded mode.
func (s *Server) exitDegraded() {
	s.healthMu.Lock()
	reason := s.degradedReason
	outage := time.Since(s.degradedSince)
	s.degraded = false
	s.degradedReason = ""
	s.healthMu.Unlock()
	s.cfg.Logger.Info("disk probe succeeded; degraded mode cleared, admissions resumed",
		"reason", reason, "outage", outage.Round(time.Millisecond))
}

// probeLoop retries the disk probe every ProbeInterval until it succeeds
// or the server shuts down. One loop runs per degraded episode.
func (s *Server) probeLoop() {
	defer s.probeWG.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
			if err := s.probeDisk(); err != nil {
				s.cfg.Logger.Debug("disk probe failed; staying degraded", "err", err)
				continue
			}
			s.exitDegraded()
			return
		}
	}
}

// probeDisk exercises the same durability paths whose failure degrades
// the server — a no-op journal append (write + fsync through the WAL
// pipeline; replay ignores probe entries) and a synced scratch file in
// the store directory — so recovery is decided by the subsystems that
// actually failed, not by an unrelated disk touch.
func (s *Server) probeDisk() error {
	s.mu.Lock()
	err := s.journal.Append(journalEntry{Op: opProbe})
	if err == nil {
		// Probe spam is reclaimed by the same online compaction.
		s.maybeRotateLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// The tmp- prefix makes the startup sweep remove a file a crash left.
	scratch := filepath.Join(s.cfg.DataDir, "store", "tmp-probe")
	if err := writeSynced(s.cfg.FS, scratch, []byte("ok\n")); err != nil {
		return err
	}
	return s.cfg.FS.Remove(scratch)
}
