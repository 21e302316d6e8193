package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"leakyway/internal/experiments"
	"leakyway/internal/telemetry"
)

// JobView is a job as clients see it: the body of GET /v1/jobs/{id}, of
// submit and cancel answers and of the SSE done frame.
type JobView struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	Status    string   `json:"status"`
	Error     string   `json:"error,omitempty"`
	Attempts  int      `json:"attempts,omitempty"`
	CacheHit  bool     `json:"cache_hit"`
	Artifacts []string `json:"artifacts,omitempty"`
	// Assertion summary from the stored result (done jobs only).
	AssertFailed int `json:"assert_failed,omitempty"`
	AssertTotal  int `json:"assert_total,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API. Routes use Go 1.22 method
// patterns, so an unknown method on a known path is 405 for free.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds the request body; templates are a few KB, so
// 4 MiB is generous without letting a client balloon daemon memory.
const maxSubmitBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, "request body: %v", err)
		return
	}
	if sub.Template == "" {
		writeError(w, http.StatusBadRequest, "template: must not be empty")
		return
	}
	j, err := s.Submit(sub)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
			}
			writeError(w, se.status, "%s", se.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	switch {
	case j.CacheHit:
		w.Header().Set("X-Cache", "hit")
	case j.Coalesced:
		w.Header().Set("X-Cache", "coalesced")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	status := http.StatusAccepted
	if j.CacheHit {
		status = http.StatusOK
	}
	writeJSON(w, status, s.viewOf(j.ID))
}

// viewOf renders a job's client-visible state, folding in the stored
// result's artifact list when the job is done.
func (s *Server) viewOf(id string) JobView {
	snap, ok := s.snapshotJob(id)
	if !ok {
		return JobView{}
	}
	v := JobView{
		ID:       snap.ID,
		Key:      snap.Key,
		Status:   snap.Status,
		Error:    snap.Error,
		Attempts: snap.Attempts,
		CacheHit: snap.CacheHit,
	}
	if snap.Status == StatusDone {
		if meta, err := s.store.Meta(snap.Key); err == nil {
			names := make([]string, 0, len(meta.Artifacts))
			for name := range meta.Artifacts {
				names = append(names, name)
			}
			slices.Sort(names)
			v.Artifacts = names
			v.AssertFailed = meta.AssertFailed
			v.AssertTotal = meta.AssertTotal
		}
	}
	return v
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.snapshotJob(id); !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(id))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, err := s.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(id))
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name := r.PathValue("name")
	snap, ok := s.snapshotJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	contentType, ok := artifactTypes[name]
	if !ok {
		writeError(w, http.StatusNotFound, "no such artifact %q (want metrics, report, trace or progress)", name)
		return
	}
	if snap.Status != StatusDone {
		writeError(w, http.StatusConflict, "job %s is %s; artifacts exist only for done jobs", id, snap.Status)
		return
	}
	data, err := s.store.Artifact(snap.Key, name)
	if err != nil {
		// Distinguish "this run never recorded that artifact" from "the
		// whole entry was evicted under the store quota" — the latter is
		// recomputable by resubmitting the same template.
		if !s.store.Has(snap.Key) {
			writeError(w, http.StatusGone, "result for job %s was evicted under the store quota; resubmit to recompute", id)
			return
		}
		writeError(w, http.StatusNotFound, "artifact %q not recorded for job %s", name, id)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	deg, reason := s.DegradedState()
	s.mu.Lock()
	queued, jobs, draining := s.queued, len(s.jobs), s.draining
	s.mu.Unlock()
	body := map[string]any{
		"status":       "ok",
		"engine":       experiments.EngineVersion,
		"queue_depth":  queued,
		"workers":      s.cfg.Workers,
		"workers_busy": int(s.met.workersBusy.Value()),
		"jobs":         jobs,
	}
	status := http.StatusOK
	switch {
	case draining:
		body["status"] = "draining"
		status = http.StatusServiceUnavailable
	case deg:
		body["status"] = "degraded"
		body["reason"] = reason
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetricsz renders the telemetry registry as Prometheus text
// exposition (version 0.0.4) — the scrape endpoint.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	telemetry.WritePrometheus(w, s.met.reg.Snapshot())
}
