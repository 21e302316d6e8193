package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"leakyway/internal/experiments"
	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
)

// TestSSELiveStreamAndReplay drives a job through two runner-published
// phases while a subscriber watches live, then checks a late subscriber
// gets the same history replayed from the stored artifact.
func TestSSELiveStreamAndReplay(t *testing.T) {
	started := make(chan struct{})
	release1 := make(chan struct{})
	release2 := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.ProgressInterval = 5 * time.Millisecond
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, prog *telemetry.Progress) (*Result, error) {
			prog.SetPhasesTotal(2)
			prog.StartPhase("alpha")
			close(started)
			<-release1
			prog.EndPhase()
			prog.StartPhase("beta")
			<-release2
			prog.EndPhase()
			return &Result{Report: []byte("r"), Metrics: []byte("{}\n")}, nil
		}
	})
	defer s.Drain()
	c := newTestClient(t, s)

	j, err := s.Submit(Submission{Template: tmplFor("sse"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The stream opens with an immediate frame of the current state.
	// Releasing phase alpha must produce a beta frame, and finishing the
	// job a done frame, after which the daemon closes the stream.
	stage, doneData := 0, ""
	err = c.Events(context.Background(), j.ID, func(name, data string) bool {
		if doneData != "" {
			t.Fatalf("frame %s %q after done", name, data)
		}
		switch {
		case stage == 0:
			if name != "progress" || !strings.Contains(data, `"phase":"alpha"`) {
				t.Fatalf("first frame %s %s, want progress in phase alpha", name, data)
			}
			close(release1)
			stage = 1
		case stage == 1 && strings.Contains(data, `"phase":"beta"`):
			close(release2)
			stage = 2
		case name == "done":
			doneData = data
		}
		return true
	})
	if err != nil {
		t.Fatalf("live stream: %v", err)
	}
	if stage != 2 || !strings.Contains(doneData, `"status":"done"`) {
		t.Fatalf("stream closed at stage %d with done frame %q, want both phases and a terminal status", stage, doneData)
	}

	// Late subscriber: the same job replays progress from the stored
	// artifact, then the done frame.
	progressFrames, doneData := 0, ""
	err = c.Events(context.Background(), j.ID, func(name, data string) bool {
		if name == "progress" {
			progressFrames++
			return true
		}
		doneData = data
		return name != "done"
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if progressFrames == 0 {
		t.Fatalf("replay produced no progress frames before done")
	}
	if !strings.Contains(doneData, `"status":"done"`) {
		t.Fatalf("replay done frame %q", doneData)
	}

	// The progress artifact is fetchable directly and ends at 2/2 phases.
	areq, err := http.Get(c.base + "/v1/jobs/" + j.ID + "/artifacts/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer areq.Body.Close()
	if areq.StatusCode != 200 {
		t.Fatalf("progress artifact status %d", areq.StatusCode)
	}
	if ct := areq.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("progress artifact content type %q", ct)
	}
	body, _ := io.ReadAll(areq.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if !strings.Contains(lines[len(lines)-1], `"phases_done":2`) {
		t.Fatalf("final progress line %q does not show 2 completed phases", lines[len(lines)-1])
	}

	// Unknown jobs get a plain 404, not a stream.
	err = c.Events(context.Background(), "nope", func(string, string) bool { return true })
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("events for unknown job: %v, want status 404", err)
	}
}

// TestSSEClientDisconnectFreesStream cancels a live subscription and
// checks the handler goroutine exits (subscriber gauge back to zero) —
// the no-leak property.
func TestSSEClientDisconnectFreesStream(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.ProgressInterval = 5 * time.Millisecond
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, prog *telemetry.Progress) (*Result, error) {
			prog.StartPhase("held")
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{Report: []byte("r"), Metrics: []byte("{}\n")}, nil
		}
	})
	defer s.Drain()
	defer close(release)
	c := newTestClient(t, s)

	j, err := s.Submit(Submission{Template: tmplFor("dc"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Read one frame with the stream counted, then go away mid-run.
	err = c.Events(context.Background(), j.ID, func(string, string) bool {
		if got := s.met.sseSubs.Value(); got != 1 {
			t.Fatalf("subscriber gauge %v with one open stream, want 1", got)
		}
		return false
	})
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.met.sseSubs.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber gauge stuck at %v after disconnect", s.met.sseSubs.Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricszExposition scrapes /metricsz after a little traffic and
// pins the exposition-format essentials: content type, HELP/TYPE
// comments, labeled counters and a complete histogram.
func TestMetricszExposition(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain()
	h := s.Handler()

	j, err := s.Submit(Submission{Template: tmplFor("mx"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j.ID, StatusDone)
	if _, err := s.Submit(Submission{Template: tmplFor("mx"), Seed: 1}); err != nil {
		t.Fatal(err) // cache hit
	}

	w := doJSON(h, "GET", "/metricsz", nil)
	if w.Code != 200 {
		t.Fatalf("metricsz: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("metricsz content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE leakywayd_jobs_total counter",
		"# HELP leakywayd_jobs_total",
		`leakywayd_jobs_total{event="accepted"} 2`,
		`leakywayd_store_lookups_total{result="hit"} 1`,
		`leakywayd_store_lookups_total{result="miss"} 1`,
		"# TYPE leakywayd_queue_wait_seconds histogram",
		`leakywayd_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"leakywayd_queue_wait_seconds_count 1",
		`leakywayd_job_duration_seconds_count{status="done"} 1`,
		"# TYPE leakywayd_wal_fsync_seconds histogram",
		"leakywayd_queue_depth 0",
		"leakywayd_workers 2",
		"leakywayd_draining 0",
		fmt.Sprintf(`leakywayd_build_info{engine=%q} 1`, experiments.EngineVersion),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metricsz missing %q in:\n%s", want, body)
		}
	}
	// WAL fsyncs happened (accept + done entries at minimum).
	if !strings.Contains(body, "leakywayd_wal_fsync_seconds_count") {
		t.Fatalf("metricsz missing wal fsync count:\n%s", body)
	}

	// Every sample line is NAME{labels} VALUE or NAME VALUE — no torn
	// lines, no stray text.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 || fields[0] == "" || fields[1] == "" {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestMetricszRaceClean hammers the metrics read paths while jobs flow —
// the -race gate for the registry-backed counter reads.
func TestMetricszRaceClean(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				doJSON(h, "GET", "/metricsz", nil)
				s.met.reg.Snapshot()
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Submit(Submission{Template: tmplFor(fmt.Sprintf("rc%d", i%5)), Seed: int64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if got := s.met.accepted.Value(); got != 30 {
		t.Fatalf("accepted %d, want 30", got)
	}
	if got := s.met.completed.Value(); got != 30 {
		t.Fatalf("completed %d, want 30", got)
	}
}

// TestProgressFrameKeys pins the wire shape of progress records from a
// real engine run: a live SSE frame and a stored progress artifact line
// carry exactly the timestamp plus phase and shard counters.
func TestProgressFrameKeys(t *testing.T) {
	ran := make(chan struct{})
	releaseCh := make(chan struct{})
	release := sync.OnceFunc(func() { close(releaseCh) })
	s := newTestServer(t, func(c *Config) {
		c.ProgressInterval = 5 * time.Millisecond
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, prog *telemetry.Progress) (*Result, error) {
			res, err := EngineRunner(ctx, sub, spec, prog)
			close(ran)
			<-releaseCh
			return res, err
		}
	})
	defer s.Drain()
	defer release()
	c := newTestClient(t, s)

	j, err := s.Submit(Submission{Template: tmplFor("keys"), Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-ran

	want := []string{"phase", "phases_done", "phases_total", "shards_done", "shards_total", "t_ms"}
	checkKeys := func(what, data string) {
		t.Helper()
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			t.Fatalf("%s: %v in %q", what, err, data)
		}
		if got := slices.Sorted(maps.Keys(rec)); !slices.Equal(got, want) {
			t.Fatalf("%s keys %v, want %v (record %s)", what, got, want, data)
		}
	}

	err = c.Events(context.Background(), j.ID, func(name, data string) bool {
		if name != "progress" {
			t.Fatalf("first frame %s %s, want progress", name, data)
		}
		checkKeys("live frame", data)
		return false
	})
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	release()
	waitStatus(t, s, j.ID, StatusDone)

	snap, _ := s.snapshotJob(j.ID)
	data, err := s.store.Artifact(snap.Key, "progress")
	if err != nil {
		t.Fatalf("progress artifact: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	checkKeys("stored line", lines[len(lines)-1])
}
