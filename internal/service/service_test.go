package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakyway/internal/iofault"
	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
)

// testLogger routes the server's structured logs into the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t: t}, nil))
}

// tmplFor renders a distinct minimal valid template per id.
func tmplFor(id string) string {
	return fmt.Sprintf(`id: %s
title: Test scenario %s
kind: statewalk
statewalk:
  message: "10"
  calibrate_samples: 8
  receiver_ready: 30000
  phase_step: 5000
`, id, id)
}

// stubRunner returns a deterministic Runner that sleeps delay (honoring
// the context) and counts its calls.
func stubRunner(delay time.Duration, calls *int64, mu *sync.Mutex) Runner {
	return func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
		if mu != nil {
			mu.Lock()
			*calls++
			mu.Unlock()
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		metrics := fmt.Sprintf("{\n  \"%s/stub_metric\": %d\n}\n", spec.ID, sub.Seed)
		return &Result{
			Report:  []byte("report for " + spec.ID + "\n"),
			Metrics: []byte(metrics),
		}, nil
	}
}

// newTestServer builds a server over a temp dir with a fast stub runner;
// mutate adjusts the config before New.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		DataDir:    t.TempDir(),
		Workers:    2,
		QueueCap:   16,
		JobTimeout: 30 * time.Second,
		MaxRetries: -1,
		Runner:     stubRunner(0, nil, nil),
		Logger:     testLogger(t),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitStatus polls until job id reaches status (or a terminal status).
func waitStatus(t *testing.T, s *Server, id, status string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := s.snapshotJob(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.Status == status {
			return snap
		}
		if snap.terminal() {
			t.Fatalf("job %s reached %q (err %q), want %q", id, snap.Status, snap.Error, status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, status)
	return Job{}
}

func TestSubmitRunsAndCachesResult(t *testing.T) {
	var calls int64
	var mu sync.Mutex
	s := newTestServer(t, func(c *Config) { c.Runner = stubRunner(0, &calls, &mu) })
	defer s.Drain()

	sub := Submission{Template: tmplFor("demo"), Seed: 42}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j1.CacheHit {
		t.Fatalf("first submission must not be a cache hit")
	}
	waitStatus(t, s, j1.ID, StatusDone)

	m1, err := s.store.Artifact(j1.Key, "metrics")
	if err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if !strings.Contains(string(m1), "demo/stub_metric") {
		t.Fatalf("metrics artifact missing stub metric: %q", m1)
	}

	// Identical resubmission: served from the store, runner not re-invoked.
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !j2.CacheHit {
		t.Fatalf("resubmission of an identical job must be a cache hit")
	}
	if j2.Key != j1.Key {
		t.Fatalf("cache keys differ: %s vs %s", j1.Key, j2.Key)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}

	// A different surface form of the same template keys identically.
	spec, err := scenario.Parse([]byte(sub.Template), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	reform := Submission{Template: string(scenario.CanonicalBytes(spec)), Seed: 42}
	j3, err := s.Submit(reform)
	if err != nil {
		t.Fatalf("reformatted submit: %v", err)
	}
	if !j3.CacheHit {
		t.Fatalf("canonical-form resubmission must hit the cache (key %s vs %s)", j3.Key, j1.Key)
	}
}

func TestSingleFlightCoalescesConcurrentDuplicates(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int64
	var mu sync.Mutex
	s := newTestServer(t, func(c *Config) {
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{Report: []byte("r"), Metrics: []byte("{}\n")}, nil
		}
	})
	defer s.Drain()

	sub := Submission{Template: tmplFor("dup"), Seed: 7}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the execution is running; a duplicate must attach, not queue

	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Coalesced {
		t.Fatalf("duplicate of an in-flight key must coalesce")
	}
	if j2.CacheHit {
		t.Fatalf("in-flight duplicate is not a cache hit")
	}
	close(release)
	waitStatus(t, s, j1.ID, StatusDone)
	waitStatus(t, s, j2.ID, StatusDone)
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("coalesced duplicate ran the runner %d times, want 1", got)
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 2
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{Report: []byte("r"), Metrics: []byte("{}\n")}, nil
		}
	})
	defer func() {
		close(release)
		s.Drain()
	}()

	if _, err := s.Submit(Submission{Template: tmplFor("bp0"), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-started // worker is busy; the queue is empty again

	for i := 1; i <= 2; i++ {
		if _, err := s.Submit(Submission{Template: tmplFor(fmt.Sprintf("bp%d", i)), Seed: 1}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if got := s.queueDepth(); got != 2 {
		t.Fatalf("queue depth %d, want 2", got)
	}

	_, err := s.Submit(Submission{Template: tmplFor("bp3"), Seed: 1})
	se, ok := err.(*submitError)
	if !ok {
		t.Fatalf("overflow submit: got err %v, want *submitError", err)
	}
	if se.status != 429 {
		t.Fatalf("overflow status %d, want 429", se.status)
	}
	if se.retryAfter <= 0 {
		t.Fatalf("429 must carry a Retry-After hint, got %d", se.retryAfter)
	}
}

func TestDrainFinishesAllAcceptedJobs(t *testing.T) {
	var calls int64
	var mu sync.Mutex
	s := newTestServer(t, func(c *Config) {
		c.Workers = 2
		c.Runner = stubRunner(5*time.Millisecond, &calls, &mu)
	})

	var ids []string
	for i := 0; i < 8; i++ {
		j, err := s.Submit(Submission{Template: tmplFor(fmt.Sprintf("dr%d", i)), Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		snap, ok := s.snapshotJob(id)
		if !ok {
			t.Fatalf("job %s lost across drain", id)
		}
		if snap.Status != StatusDone {
			t.Fatalf("job %s is %q after drain (err %q), want done", id, snap.Status, snap.Error)
		}
		if !s.store.Has(snap.Key) {
			t.Fatalf("job %s has no stored result after drain", id)
		}
	}
	// Draining servers refuse new work.
	if _, err := s.Submit(Submission{Template: tmplFor("late"), Seed: 1}); err == nil {
		t.Fatalf("submit after drain must fail")
	} else if se, ok := err.(*submitError); !ok || se.status != 503 {
		t.Fatalf("submit after drain: got %v, want 503", err)
	}
}

func TestKillRestartRecoversJournalledJobs(t *testing.T) {
	dir := t.TempDir()
	var calls int64
	var mu sync.Mutex

	// Server 1: stall long enough that the kill lands mid-attempt.
	cfg := Config{
		DataDir:    dir,
		Workers:    1,
		MaxRetries: -1,
		Stall:      time.Hour,
		Runner:     stubRunner(0, &calls, &mu),
		Logger:     testLogger(t),
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := Submission{Template: tmplFor("recov"), Seed: 99}
	j1, err := s1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, j1.ID, StatusRunning)
	s1.Kill() // hard stop: no drain, no terminal journal entries

	mu.Lock()
	if calls != 0 {
		mu.Unlock()
		t.Fatalf("runner ran before the kill; stall did not hold")
	}
	mu.Unlock()

	// Server 2: same data dir, no stall. The journalled accept must be
	// recovered, re-run and completed under the SAME job ID.
	cfg.Stall = 0
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	snap := waitStatus(t, s2, j1.ID, StatusDone)
	recovered, err := s2.store.Artifact(snap.Key, "metrics")
	if err != nil {
		t.Fatalf("recovered metrics: %v", err)
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Reference: the same submission on a fresh server must produce
	// byte-identical metrics.
	ref := newTestServer(t, func(c *Config) { c.Runner = stubRunner(0, nil, nil) })
	jr, err := ref.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ref, jr.ID, StatusDone)
	fresh, err := ref.store.Artifact(jr.Key, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	ref.Drain()
	if !bytes.Equal(recovered, fresh) {
		t.Fatalf("recovered metrics differ from a fresh run:\n%q\nvs\n%q", recovered, fresh)
	}
	if jr.Key != snap.Key {
		t.Fatalf("cache key drifted across restart: %s vs %s", jr.Key, snap.Key)
	}
}

// TestRecoveredExecutionCoalesces checks that a recovered execution is
// its key's one execution: resubmitting the recovering job attaches to
// it instead of simulating the key a second time.
func TestRecoveredExecutionCoalesces(t *testing.T) {
	dir := t.TempDir()
	var calls int64
	var mu sync.Mutex
	cfg := Config{
		DataDir:    dir,
		Workers:    2,
		MaxRetries: -1,
		Stall:      time.Hour,
		Runner:     stubRunner(0, &calls, &mu),
		Logger:     testLogger(t),
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := Submission{Template: tmplFor("recoal"), Seed: 11}
	j1, err := s1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, j1.ID, StatusRunning)
	s1.Kill()

	// The short stall holds the recovered execution while the same
	// submission arrives; a worker is free to start a duplicate.
	cfg.Stall = 200 * time.Millisecond
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Drain()
	j2, err := s2.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Coalesced {
		t.Fatalf("resubmission of the recovering job did not coalesce")
	}
	waitStatus(t, s2, j1.ID, StatusDone)
	waitStatus(t, s2, j2.ID, StatusDone)
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}
	if n := s2.met.degradedEntered.Value(); n != 0 {
		t.Fatalf("server degraded %d times, want 0", n)
	}
	c := newTestClient(t, s2)
	m1, err := c.Artifact(j1.ID, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Artifact(j2.ID, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics differ between the recovered and the coalesced job:\n%q\nvs\n%q", m1, m2)
	}
}

func TestRestartAfterCleanDrainRecoversNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, MaxRetries: -1, Runner: stubRunner(0, nil, nil), Logger: testLogger(t)}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(Submission{Template: tmplFor("clean"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, j.ID, StatusDone)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after clean drain: %v", err)
	}
	defer s2.Drain()
	if got := s2.met.recovered.Value(); got != 0 {
		t.Fatalf("clean shutdown recovered %d jobs, want 0", got)
	}
	// The completed job is still visible and its artifacts still served.
	snap, ok := s2.snapshotJob(j.ID)
	if !ok || snap.Status != StatusDone {
		t.Fatalf("done job not preserved across clean restart: %+v ok=%v", snap, ok)
	}
	if _, err := s2.store.Artifact(snap.Key, "metrics"); err != nil {
		t.Fatalf("artifact lost across clean restart: %v", err)
	}
}

// recencySurvivesRestart runs misses on a, b and c and then a cache hit
// on a, stops the server with stop and restarts it with a two-entry cap.
// The journal's submissions order recency across the restart, so b, the
// key asked for least recently, is the one evicted.
func recencySurvivesRestart(t *testing.T, stop func(*Server)) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.DataDir = dir })
	ids := map[string]string{} // template id → its first job's ID
	for _, id := range []string{"a", "b", "c", "a"} {
		j, err := s.Submit(Submission{Template: tmplFor(id), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, s, j.ID, StatusDone)
		if _, seen := ids[id]; seen != j.CacheHit {
			t.Fatalf("submission of %s: cache hit %v", id, j.CacheHit)
		}
		if !j.CacheHit {
			ids[id] = j.ID
		}
	}
	stop(s)

	s2 := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.StoreMaxEntries = 2
	})
	defer s2.Drain()
	c := newTestClient(t, s2)
	for _, id := range []string{"a", "c"} {
		if _, err := c.Artifact(ids[id], "metrics"); err != nil {
			t.Fatalf("%s evicted on restart: %v", id, err)
		}
	}
	_, err := c.Artifact(ids["b"], "metrics")
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusGone {
		t.Fatalf("b, the least recent key, read back with %v, want status 410", err)
	}
}

func TestRecencySurvivesKill(t *testing.T) {
	recencySurvivesRestart(t, (*Server).Kill)
}

func TestRecencySurvivesDrain(t *testing.T) {
	recencySurvivesRestart(t, func(s *Server) {
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplayKeepsFailedJobFailed checks that a key's later done record
// does not rewrite an earlier job of the key that failed: after a
// restart the failed job still reads failed, with its error.
func TestReplayKeepsFailedJobFailed(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	stub := stubRunner(0, nil, nil)
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, p *telemetry.Progress) (*Result, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("first run fails")
			}
			return stub(ctx, sub, spec, p)
		}
	})
	sub := Submission{Template: tmplFor("refail"), Seed: 1}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j1.ID, StatusFailed)
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j2.ID, StatusDone)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	if snap, _ := s2.snapshotJob(j1.ID); snap.Status != StatusFailed || !strings.Contains(snap.Error, "first run fails") {
		t.Fatalf("after restart the failed job reads %q (err %q), want failed", snap.Status, snap.Error)
	}
	if snap, _ := s2.snapshotJob(j2.ID); snap.Status != StatusDone {
		t.Fatalf("after restart the done job reads %q, want done", snap.Status)
	}
}

// TestLiveEntriesOrderJobsNumerically checks that compaction orders jobs
// by sequence number, not by ID string: j-999999 comes before j-1000000.
func TestLiveEntriesOrderJobsNumerically(t *testing.T) {
	s := &Server{jobs: map[string]*Job{}}
	for _, id := range []string{"j-1000000", "j-999999"} {
		s.jobs[id] = &Job{ID: id, Key: storeKey(1), Status: StatusQueued}
	}
	var got []string
	for _, e := range s.liveEntries() {
		got = append(got, e.ID)
	}
	if want := []string{"j-999999", "j-1000000"}; !slices.Equal(got, want) {
		t.Fatalf("compacted journal order %v, want %v", got, want)
	}
}

func TestCancelStopsRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
	})
	defer s.Drain()

	j, err := s.Submit(Submission{Template: tmplFor("cx"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	found, err := s.Cancel(j.ID)
	if !found || err != nil {
		t.Fatalf("Cancel: found=%v err=%v", found, err)
	}
	snap, _ := s.snapshotJob(j.ID)
	if snap.Status != StatusCanceled {
		t.Fatalf("status %q after cancel, want canceled", snap.Status)
	}
	// The worker must come free (the runner returned on ctx.Done).
	j2, err := s.Submit(Submission{Template: tmplFor("cx2"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelJournalsOneRecordPerJob checks that canceling a running job
// journals one cancel record, carrying the job's ID, and nothing for the
// execution the cancel aborts; a restart shows the job canceled.
func TestCancelJournalsOneRecordPerJob(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
	})
	j, err := s.Submit(Submission{Template: tmplFor("cj"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-j.exec.done
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	entries, err := replayJournal(iofault.OS(), filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var cancels []journalEntry
	for _, e := range entries {
		if e.Op == opCancel {
			cancels = append(cancels, e)
		}
	}
	if len(cancels) != 1 || cancels[0].ID != j.ID {
		t.Fatalf("journal cancel records %+v, want exactly one for %s", cancels, j.ID)
	}

	s2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	defer s2.Drain()
	if snap, ok := s2.snapshotJob(j.ID); !ok || snap.Status != StatusCanceled {
		t.Fatalf("after restart job %s is %q (found %v), want canceled", j.ID, snap.Status, ok)
	}
}

// TestResubmitWhileCancelAbortsRetriesLater checks that a submission
// never attaches to an execution whose every job was canceled after it
// started: it would fail with the abort. It is refused with 503 +
// Retry-After until the aborted execution finishes, then runs afresh.
func TestResubmitWhileCancelAbortsRetriesLater(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				<-release // hold the aborted execution in the index
				return nil, ctx.Err()
			case <-release:
			}
			return &Result{Report: []byte("r"), Metrics: []byte("{}\n")}, nil
		}
	})
	defer s.Drain()

	sub := Submission{Template: tmplFor("abort"), Seed: 1}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(sub)
	if se, ok := err.(*submitError); !ok || se.status != 503 || se.retryAfter <= 0 {
		t.Fatalf("submit while the key's execution aborts: %v, want 503 with Retry-After", err)
	}
	close(release)
	<-j1.exec.done

	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("submit after the aborted execution finished: %v", err)
	}
	if j2.Coalesced || j2.CacheHit {
		t.Fatalf("resubmission after the abort attached to old work (coalesced=%v hit=%v)", j2.Coalesced, j2.CacheHit)
	}
	waitStatus(t, s, j2.ID, StatusDone)
	if snap, _ := s.snapshotJob(j1.ID); snap.Status != StatusCanceled {
		t.Fatalf("canceled job ended %q", snap.Status)
	}
}

// corruptStoredArtifact flips a byte of the metrics artifact inside the
// key's entry file.
func corruptStoredArtifact(t *testing.T, dataDir, key string) {
	t.Helper()
	path := filepath.Join(dataDir, "store", hexOf(key)+".entry")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	nl := bytes.IndexByte(data, '\n')
	var meta storeMeta
	if nl < 0 || json.Unmarshal(data[:nl], &meta) != nil || meta.Artifacts["metrics"].Length == 0 {
		t.Fatalf("corrupt: %s has no metrics artifact", path)
	}
	data[nl+1+int(meta.Artifacts["metrics"].Offset)] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
}

// TestFailingRunnerRunsOnce checks that a failed simulation is final:
// the engine is deterministic, so a re-run could only fail again. The
// runner is called once whatever the retry budget, and the job fails
// with the runner's error.
func TestFailingRunnerRunsOnce(t *testing.T) {
	var calls int64
	var mu sync.Mutex
	s := newTestServer(t, func(c *Config) {
		c.MaxRetries = 2
		c.RetryBase = time.Millisecond
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil, fmt.Errorf("deterministic failure")
		}
	})
	defer s.Drain()

	j, err := s.Submit(Submission{Template: tmplFor("fl"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitStatus(t, s, j.ID, StatusFailed)
	if !strings.Contains(snap.Error, "deterministic failure") {
		t.Fatalf("error %q lost the cause", snap.Error)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}
	if n := s.met.retries.Value(); n != 0 {
		t.Fatalf("retries counter %d, want 0", n)
	}
}

// TestPublishRetriesReuseOneSimulation checks that a failed store
// publish is retried without re-running the simulation: k failed renames
// give one runner call, k+1 publish attempts and k retries.
func TestPublishRetriesReuseOneSimulation(t *testing.T) {
	const k = 2
	var calls int64
	var mu sync.Mutex
	inj := iofault.NewInjector(iofault.OS(), 1, iofault.FailFirst("store", iofault.OpRename, k, iofault.ErrIO))
	s := newTestServer(t, func(c *Config) {
		c.FS = inj
		c.MaxRetries = 8
		c.RetryBase = time.Millisecond
		c.Runner = stubRunner(0, &calls, &mu)
	})
	defer s.Drain()

	j, err := s.Submit(Submission{Template: tmplFor("pub"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitStatus(t, s, j.ID, StatusDone)
	if got := inj.Injected("fail-first"); got != k {
		t.Fatalf("rename fault fired %d times, want %d", got, k)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}
	if snap.Attempts != k+1 {
		t.Fatalf("attempts %d, want %d", snap.Attempts, k+1)
	}
	if n := s.met.retries.Value(); n != k {
		t.Fatalf("retries counter %d, want %d", n, k)
	}
	if _, err := s.store.verifyEntry(s.store.entryPath(j.Key)); err != nil {
		t.Fatalf("published entry fails verification: %v", err)
	}
}

func TestRunnerPanicIsContainedAndFailsJob(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.RetryBase = time.Millisecond
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			panic("runner exploded")
		}
	})
	defer s.Drain()

	j, err := s.Submit(Submission{Template: tmplFor("pn"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := s.snapshotJob(j.ID)
		if snap.terminal() {
			if snap.Status != StatusFailed {
				t.Fatalf("status %q, want failed", snap.Status)
			}
			if !strings.Contains(snap.Error, "runner exploded") {
				t.Fatalf("error %q lost the panic value", snap.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never terminal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.met.panics.Value() == 0 {
		t.Fatalf("panic counter not incremented")
	}
	// The daemon is still alive and serving.
	j2, err := s.Submit(Submission{Template: tmplFor("pn"), Seed: 2})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	_ = j2
}

func TestStoreSurvivesCorruptionSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, MaxRetries: -1, Runner: stubRunner(0, nil, nil), Logger: testLogger(t)}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(Submission{Template: tmplFor("cor"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitStatus(t, s1, j.ID, StatusDone)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	// Journals written by older daemons end in a "clean" marker after a
	// drain; replay must skip it.
	jf, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"op":"clean"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Corrupt the stored metrics; the restart sweep must drop the entry,
	// and a resubmission must re-run instead of serving the bad bytes.
	corruptStoredArtifact(t, dir, snap.Key)

	var calls int64
	var mu sync.Mutex
	cfg.Runner = stubRunner(0, &calls, &mu)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if s2.store.Has(snap.Key) {
		t.Fatalf("corrupt entry survived the integrity sweep")
	}
	j2, err := s2.Submit(Submission{Template: tmplFor("cor"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit {
		t.Fatalf("corrupt entry served as a cache hit")
	}
	waitStatus(t, s2, j2.ID, StatusDone)
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("runner ran %d times after corruption, want 1", calls)
	}
}

// TestStoreSweepsOlderFormatDirectories checks that a restart removes the
// entry and temp directories of the older one-directory-per-entry store
// layout, and that a done job whose entry went that way answers 410, as
// after an eviction.
func TestStoreSweepsOlderFormatDirectories(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, MaxRetries: -1, Runner: stubRunner(0, nil, nil), Logger: testLogger(t)}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(Submission{Template: tmplFor("old"), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitStatus(t, s1, j.ID, StatusDone)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Lay the entry out as the older format did, beside a temp directory
	// of one of its interrupted writes.
	storeDir := filepath.Join(dir, "store")
	entryDir := filepath.Join(storeDir, hexOf(snap.Key))
	tmpDir := filepath.Join(storeDir, "tmp-1234")
	if err := os.Remove(entryDir + ".entry"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{entryDir, tmpDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"meta.json", "metrics.json", "report.txt"} {
			if err := os.WriteFile(filepath.Join(d, f), []byte("{}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if got := s2.met.sweepRemoved.Value(); got != 2 {
		t.Fatalf("sweep removed %d entries, want the entry and the temp directory", got)
	}
	for _, d := range []string{entryDir, tmpDir} {
		if fileExists(d) {
			t.Fatalf("%s survived the sweep", d)
		}
	}
	if snap, _ := s2.snapshotJob(j.ID); snap.Status != StatusDone {
		t.Fatalf("job %s is %q after restart, want done", j.ID, snap.Status)
	}
	_, err = newTestClient(t, s2).Artifact(j.ID, "metrics")
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusGone {
		t.Fatalf("metrics of the swept entry: %v, want status 410", err)
	}
}
