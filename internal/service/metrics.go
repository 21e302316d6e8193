package service

import (
	"leakyway/internal/experiments"
	"leakyway/internal/telemetry"
)

// serverMetrics is the daemon's telemetry surface: every operational
// counter the old Stats struct carried, re-homed onto registry-backed
// series so /metricsz and tests read the same atomics.
// Counter updates are single atomic adds, so the hot admission and
// worker paths pay nothing measurable.
type serverMetrics struct {
	reg *telemetry.Registry

	// leakywayd_jobs_total{event=...} — job lifecycle event counts.
	accepted  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	rejected  *telemetry.Counter
	retries   *telemetry.Counter
	panics    *telemetry.Counter
	recovered *telemetry.Counter
	// rejected_degraded: admissions refused while the disk is sick.
	rejectedDegraded *telemetry.Counter

	// leakywayd_store_lookups_total{result=...} — admission-time store
	// outcome: hit (served from cache), coalesced (attached to an
	// in-flight execution), miss (fresh execution scheduled).
	storeHit       *telemetry.Counter
	storeCoalesced *telemetry.Counter
	storeMiss      *telemetry.Counter

	// Store governance and integrity repair.
	storeEvictions    *telemetry.Counter
	storeEvictedBytes *telemetry.Counter
	sweepRemoved      *telemetry.Counter

	// Durability hardening: degraded-mode episodes and online journal
	// compactions.
	degradedEntered *telemetry.Counter
	walRotations    *telemetry.Counter

	// Worker utilization and SSE fan-out.
	workersBusy *telemetry.Gauge
	sseSubs     *telemetry.Gauge

	// helpersRecruited counts the goroutines running executions recruit
	// from the engine worker budget's idle tokens.
	helpersRecruited *telemetry.Counter

	// Latency distributions, in seconds.
	queueWait   *telemetry.Histogram
	jobDone     *telemetry.Histogram
	jobFailed   *telemetry.Histogram
	jobCanceled *telemetry.Histogram
	walFsync    *telemetry.Histogram
}

// walFsyncBuckets resolves fsync latency: journal appends are tiny, so
// the interesting range is tens of microseconds to tens of milliseconds,
// with the long tail covered up to a second.
var walFsyncBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// newServerMetrics builds the registry and registers every family. The
// gauge callbacks sample the server's own state under its lock at
// snapshot time, so queue depth and job-table size are never duplicated
// into shadow variables that could drift.
func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	const jobsTotal = "leakywayd_jobs_total"
	const jobsHelp = "Job lifecycle events by type."
	m.accepted = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "accepted"))
	m.completed = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "completed"))
	m.failed = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "failed"))
	m.canceled = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "canceled"))
	m.rejected = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "rejected"))
	m.retries = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "retried"))
	m.panics = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "panic"))
	m.recovered = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "recovered"))
	m.rejectedDegraded = reg.Counter(jobsTotal, jobsHelp, telemetry.L("event", "rejected_degraded"))

	const lookups = "leakywayd_store_lookups_total"
	const lookupsHelp = "Admission-time result-store outcomes."
	m.storeHit = reg.Counter(lookups, lookupsHelp, telemetry.L("result", "hit"))
	m.storeCoalesced = reg.Counter(lookups, lookupsHelp, telemetry.L("result", "coalesced"))
	m.storeMiss = reg.Counter(lookups, lookupsHelp, telemetry.L("result", "miss"))

	m.storeEvictions = reg.Counter("leakywayd_store_evictions_total",
		"Entries evicted to keep the store under its quota.")
	m.storeEvictedBytes = reg.Counter("leakywayd_store_evicted_bytes_total",
		"Bytes reclaimed by store eviction.")
	m.sweepRemoved = reg.Counter("leakywayd_store_sweep_removed_total",
		"Entries the startup integrity sweep removed.")
	m.degradedEntered = reg.Counter("leakywayd_degraded_entered_total",
		"Times the server entered degraded mode over a disk failure.")
	m.walRotations = reg.Counter("leakywayd_wal_rotations_total",
		"Online journal compactions.")

	m.workersBusy = reg.Gauge("leakywayd_workers_busy",
		"Workers currently running an execution.")
	m.sseSubs = reg.Gauge("leakywayd_sse_subscribers",
		"Open SSE progress streams.")
	m.helpersRecruited = reg.Counter("leakywayd_engine_helpers_recruited_total",
		"Helper goroutines executions borrowed from idle engine worker tokens.")

	m.queueWait = reg.Histogram("leakywayd_queue_wait_seconds",
		"Time executions spend queued before a worker picks them up.", nil)
	const jobDur = "leakywayd_job_duration_seconds"
	const jobDurHelp = "Execution wall time from admission to terminal state."
	m.jobDone = reg.Histogram(jobDur, jobDurHelp, nil, telemetry.L("status", "done"))
	m.jobFailed = reg.Histogram(jobDur, jobDurHelp, nil, telemetry.L("status", "failed"))
	m.jobCanceled = reg.Histogram(jobDur, jobDurHelp, nil, telemetry.L("status", "canceled"))
	m.walFsync = reg.Histogram("leakywayd_wal_fsync_seconds",
		"Write-ahead journal append+fsync latency.", walFsyncBuckets)

	reg.GaugeFunc("leakywayd_queue_depth",
		"Executions accepted but not yet picked up by a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queued)
		})
	reg.GaugeFunc("leakywayd_workers",
		"Configured worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("leakywayd_engine_tokens_in_use",
		"Engine worker tokens out: running executions plus the helpers they borrowed.",
		func() float64 { return float64(s.budget.InUse()) })
	reg.GaugeFunc("leakywayd_jobs_tracked",
		"Jobs in the in-memory job table.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	reg.GaugeFunc("leakywayd_draining",
		"1 while the server has stopped admitting work.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("leakywayd_store_bytes",
		"Total bytes of live result-store entries.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.SizeBytes())
		})
	reg.GaugeFunc("leakywayd_store_entries",
		"Live result-store entry count.",
		func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.Len())
		})
	reg.GaugeFunc("leakywayd_degraded",
		"1 while the server is refusing admissions over a disk failure.",
		func() float64 {
			if deg, _ := s.DegradedState(); deg {
				return 1
			}
			return 0
		})
	reg.Gauge("leakywayd_build_info",
		"Constant 1, labeled with the engine version.",
		telemetry.L("engine", experiments.EngineVersion)).Set(1)

	return m
}

// jobDuration returns the latency histogram for a terminal status.
func (m *serverMetrics) jobDuration(status string) *telemetry.Histogram {
	switch status {
	case StatusDone:
		return m.jobDone
	case StatusFailed:
		return m.jobFailed
	case StatusCanceled:
		return m.jobCanceled
	}
	return nil
}
