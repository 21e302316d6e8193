package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
)

// doJSON posts body to path on h and returns the recorder.
func doJSON(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	if body != nil {
		json.NewEncoder(&buf).Encode(body)
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain()
	h := s.Handler()

	cases := []struct {
		name       string
		body       any
		raw        string
		wantStatus int
		wantSubstr string
	}{
		{
			name:       "empty template",
			body:       Submission{Template: ""},
			wantStatus: 400,
			wantSubstr: "template: must not be empty",
		},
		{
			name:       "malformed yaml",
			body:       Submission{Template: "id: [unclosed"},
			wantStatus: 400,
			wantSubstr: "template.yaml",
		},
		{
			// The strict loader's diagnostic must surface the exact field
			// path so the client can fix the template without guessing.
			name:       "missing required field",
			body:       Submission{Template: "id: x\ntitle: X\nkind: statewalk\n"},
			wantStatus: 400,
			wantSubstr: "statewalk",
		},
		{
			name:       "unknown template field",
			body:       Submission{Template: tmplFor("u") + "bogus: 1\n"},
			wantStatus: 400,
			wantSubstr: "bogus",
		},
		{
			name:       "unknown request field",
			raw:        `{"template": "id: x", "frobnicate": true}`,
			wantStatus: 400,
			wantSubstr: "frobnicate",
		},
		{
			name:       "jobs out of range",
			body:       Submission{Template: tmplFor("jr"), Jobs: 1000},
			wantStatus: 400,
			wantSubstr: "per-run limit",
		},
		{
			name:       "unknown platform",
			body:       Submission{Template: tmplFor("up"), Platform: "alderlake"},
			wantStatus: 400,
			wantSubstr: "platform",
		},
		{
			name:       "not json at all",
			raw:        "seed=42",
			wantStatus: 400,
			wantSubstr: "request body",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w *httptest.ResponseRecorder
			if tc.raw != "" {
				req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(tc.raw))
				w = httptest.NewRecorder()
				h.ServeHTTP(w, req)
			} else {
				w = doJSON(h, "POST", "/v1/jobs", tc.body)
			}
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.wantStatus, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantSubstr) {
				t.Fatalf("body %q missing %q", w.Body.String(), tc.wantSubstr)
			}
		})
	}
}

func TestHandlerSubmitLifecycleAndCacheHeaders(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain()
	h := s.Handler()

	sub := Submission{Template: tmplFor("life"), Seed: 11}
	w := doJSON(h, "POST", "/v1/jobs", sub)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first submit X-Cache %q, want miss", got)
	}
	var v JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", v)
	}

	// Poll to done via the API.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := newTestClient(t, s).Await(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Artifacts) == 0 {
		t.Fatalf("done job lists no artifacts")
	}

	// Artifacts are served with the right content type.
	w = doJSON(h, "GET", "/v1/jobs/"+v.ID+"/artifacts/metrics", nil)
	if w.Code != 200 {
		t.Fatalf("metrics artifact: %d (%s)", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type %q", ct)
	}
	w = doJSON(h, "GET", "/v1/jobs/"+v.ID+"/artifacts/report", nil)
	if w.Code != 200 || !strings.Contains(w.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("report artifact: %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	// No trace was requested, so the trace artifact does not exist.
	w = doJSON(h, "GET", "/v1/jobs/"+v.ID+"/artifacts/trace", nil)
	if w.Code != 404 {
		t.Fatalf("absent trace artifact: %d, want 404", w.Code)
	}
	w = doJSON(h, "GET", "/v1/jobs/"+v.ID+"/artifacts/nonsense", nil)
	if w.Code != 404 {
		t.Fatalf("unknown artifact name: %d, want 404", w.Code)
	}

	// Identical resubmission: 200 + X-Cache: hit, no re-simulation.
	w = doJSON(h, "POST", "/v1/jobs", sub)
	if w.Code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", w.Code)
	}
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmit X-Cache %q, want hit", got)
	}

	w = doJSON(h, "GET", "/v1/jobs/nope", nil)
	if w.Code != 404 {
		t.Fatalf("unknown job: %d, want 404", w.Code)
	}
}

func TestHandlerCoalescedHeader(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
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
	h := s.Handler()

	sub := Submission{Template: tmplFor("co"), Seed: 1}
	if w := doJSON(h, "POST", "/v1/jobs", sub); w.Code != 202 {
		t.Fatalf("submit: %d", w.Code)
	}
	<-started
	w := doJSON(h, "POST", "/v1/jobs", sub)
	if w.Code != 202 {
		t.Fatalf("duplicate submit: %d", w.Code)
	}
	if got := w.Header().Get("X-Cache"); got != "coalesced" {
		t.Fatalf("duplicate X-Cache %q, want coalesced", got)
	}
}

func TestHandlerBackpressure429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 1
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
	c := newTestClient(t, s)

	if _, _, err := c.Submit(Submission{Template: tmplFor("q0"), Seed: 1}); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-started
	if _, _, err := c.Submit(Submission{Template: tmplFor("q1"), Seed: 1}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	_, _, err := c.Submit(Submission{Template: tmplFor("q2"), Seed: 1})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %v, want status 429", err)
	}
	if se.RetryAfter == "" {
		t.Fatalf("429 without Retry-After header")
	}
}

func TestHandlerHealthzAndMetricsz(t *testing.T) {
	s := newTestServer(t, nil)
	c := newTestClient(t, s)

	if code, body, err := c.Healthz(); err != nil || code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v %v", code, body, err)
	}

	j, err := s.Submit(Submission{Template: tmplFor("st"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j.ID, StatusDone)

	for series, want := range map[string]float64{
		`leakywayd_jobs_total{event="accepted"}`:      1,
		`leakywayd_jobs_total{event="completed"}`:     1,
		`leakywayd_store_lookups_total{result="hit"}`: 0,
		"leakywayd_queue_depth":                       0,
		"leakywayd_workers":                           float64(s.cfg.Workers),
		"leakywayd_jobs_tracked":                      1,
	} {
		if got, err := c.Metric(series); err != nil || got != want {
			t.Fatalf("metricsz %s = %v (%v), want %v", series, got, err, want)
		}
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if code, body, err := c.Healthz(); err != nil || code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining healthz: %d %v %v", code, body, err)
	}
	// Submissions during drain are refused with 503.
	_, _, err = c.Submit(Submission{Template: tmplFor("late"), Seed: 1})
	if se := (*StatusError)(nil); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v, want status 503", err)
	}
}

func TestHandlerCancel(t *testing.T) {
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
	h := s.Handler()

	w := doJSON(h, "POST", "/v1/jobs", Submission{Template: tmplFor("hc"), Seed: 1})
	var v JobView
	json.Unmarshal(w.Body.Bytes(), &v)
	<-started

	w = doJSON(h, "DELETE", "/v1/jobs/"+v.ID, nil)
	if w.Code != 200 {
		t.Fatalf("cancel: %d (%s)", w.Code, w.Body.String())
	}
	json.Unmarshal(w.Body.Bytes(), &v)
	if v.Status != StatusCanceled {
		t.Fatalf("status %q after cancel", v.Status)
	}
	if w := doJSON(h, "DELETE", "/v1/jobs/nope", nil); w.Code != 404 {
		t.Fatalf("cancel unknown: %d", w.Code)
	}
}

// TestLoadDedup floods the server with concurrent duplicate submissions
// and checks that single-flight plus the store collapse them to one
// simulation per distinct key, with every accepted job reaching done.
func TestLoadDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped with -short")
	}
	const (
		distinct = 20
		total    = 1000
	)
	var calls int64
	var cmu sync.Mutex
	s := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueCap = total
		c.Runner = func(ctx context.Context, sub Submission, spec *scenario.Spec, _ *telemetry.Progress) (*Result, error) {
			cmu.Lock()
			calls++
			cmu.Unlock()
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{
				Report:  []byte("r " + spec.ID),
				Metrics: []byte(fmt.Sprintf("{\"%s\": 1}\n", spec.ID)),
			}, nil
		}
	})

	ids := make([]string, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := Submission{Template: tmplFor(fmt.Sprintf("ld%d", i%distinct)), Seed: 1}
			j, err := s.Submit(sub)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	for i, id := range ids {
		snap, ok := s.snapshotJob(id)
		if !ok {
			t.Fatalf("job %s (submission %d) lost", id, i)
		}
		if snap.Status != StatusDone {
			t.Fatalf("job %s is %q (err %q), want done", id, snap.Status, snap.Error)
		}
	}

	cmu.Lock()
	ran := calls
	cmu.Unlock()
	// ≥98% of submissions must be deduplicated (coalesced or cache hits).
	if dedup := total - ran; dedup < total*98/100 {
		t.Fatalf("only %d/%d submissions deduplicated (%d simulations for %d keys)",
			dedup, total, ran, distinct)
	}
	if ran < distinct {
		t.Fatalf("%d simulations for %d distinct keys; some keys never ran", ran, distinct)
	}
}
