package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"leakyway/internal/telemetry"
)

// Client drives a leakywayd over its HTTP API. It is the client half of
// the wire format Handler serves: the submission and job-view bodies, the
// X-Cache header, SSE framing and the /metricsz scrape. A response whose
// status the call does not expect comes back as a *StatusError (wrapped
// with the request line), so a caller that expects a 429 or a 503 finds
// it with errors.As.
type Client struct {
	base string
}

// NewClient returns a client for the daemon listening at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client { return &Client{base: base} }

// StatusError is a response with an unexpected HTTP status.
type StatusError struct {
	Code int
	// RetryAfter is the Retry-After header (whole seconds), set on 429
	// and degraded 503 answers.
	RetryAfter string
	// Body is the response body, normally {"error": "..."}.
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// awaitPoll is how often Await re-reads a running job.
const awaitPoll = 20 * time.Millisecond

// do sends one request and returns the response if its status is one of
// want; any other status is drained into a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if slices.Contains(want, resp.StatusCode) {
		return resp, nil
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return nil, fmt.Errorf("%s %s: %w", method, path, &StatusError{
		Code:       resp.StatusCode,
		RetryAfter: resp.Header.Get("Retry-After"),
		Body:       string(data),
	})
}

// doJSON is do followed by decoding the JSON response body into out. The
// returned response's body is already closed; its status and headers
// remain readable.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any, want ...int) (*http.Response, error) {
	resp, err := c.do(ctx, method, path, body, want...)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, nil
}

// Submit posts one job. It returns the job's view and the X-Cache header:
// "miss" (202, queued), "coalesced" (202, joined an identical in-flight
// job) or "hit" (200, served from the result store).
func (c *Client) Submit(sub Submission) (JobView, string, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return JobView{}, "", err
	}
	var v JobView
	resp, err := c.doJSON(context.Background(), "POST", "/v1/jobs", body, &v, http.StatusOK, http.StatusAccepted)
	if err != nil {
		return JobView{}, "", err
	}
	return v, resp.Header.Get("X-Cache"), nil
}

// Job returns a job's current view.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var v JobView
	_, err := c.doJSON(ctx, "GET", "/v1/jobs/"+id, nil, &v, http.StatusOK)
	return v, err
}

// Await polls a job until it is done and returns its final view. A failed
// or canceled job, a status error (an unknown id is a 404) or an
// undecodable body ends the wait at once with an error; so does ctx.
func (c *Client) Await(ctx context.Context, id string) (JobView, error) {
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return v, err
		}
		switch v.Status {
		case StatusDone:
			return v, nil
		case StatusFailed, StatusCanceled:
			return v, fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
		}
		select {
		case <-ctx.Done():
			return v, fmt.Errorf("job %s still %s: %w", id, v.Status, ctx.Err())
		case <-time.After(awaitPoll):
		}
	}
}

// Artifact fetches one artifact of a done job (metrics, report, trace or
// progress).
func (c *Client) Artifact(id, name string) ([]byte, error) {
	resp, err := c.do(context.Background(), "GET", "/v1/jobs/"+id+"/artifacts/"+name, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Events subscribes to a job's progress stream and calls fn with each
// frame's event name ("progress" or "done") and data. It returns nil once
// fn returns false, which closes the connection, or once the daemon ends
// the stream after the done frame.
func (c *Client) Events(ctx context.Context, id string, fn func(name, data string) bool) error {
	path := "/v1/jobs/" + id + "/events"
	resp, err := c.do(ctx, "GET", path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("GET %s: content type %q, want text/event-stream", path, ct)
	}
	// Frames are "event: NAME\ndata: DATA\n\n"; see handleJobEvents.
	var name, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if (name != "" || data != "") && !fn(name, data) {
				return nil
			}
			name, data = "", ""
		} else if v, ok := strings.CutPrefix(line, "event: "); ok {
			name = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
		}
	}
	return sc.Err()
}

// Metric scrapes /metricsz and returns one sample, named as
// telemetry.SampleValue looks it up. A missing sample is an error.
func (c *Client) Metric(series string) (float64, error) {
	resp, err := c.do(context.Background(), "GET", "/metricsz", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		return 0, fmt.Errorf("GET /metricsz: content type %q, want %q", ct, telemetry.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	v, ok := telemetry.SampleValue(string(data), series)
	if !ok {
		return 0, fmt.Errorf("GET /metricsz: no %s sample", series)
	}
	return v, nil
}

// Healthz returns the health endpoint's HTTP status (200 when ok, 503
// when draining or degraded) and its decoded body.
func (c *Client) Healthz() (int, map[string]any, error) {
	var body map[string]any
	resp, err := c.doJSON(context.Background(), "GET", "/v1/healthz", nil, &body, http.StatusOK, http.StatusServiceUnavailable)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}
