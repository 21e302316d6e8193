package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"leakyway/internal/telemetry"
)

// handleJobEvents streams one job's progress as Server-Sent Events:
//
//	event: progress
//	data: {"t_ms":1234,"phase":"fig6","phases_done":0,...}
//
// repeated while the job runs (one frame per changed snapshot, sampled
// at ProgressInterval), then a terminal frame:
//
//	event: done
//	data: {"id":"j-000001","status":"done",...}
//
// For a job that already finished, the stored "progress" artifact is
// replayed frame-for-frame before the done event, so late subscribers
// see the same stream a live one did. Client disconnects are honored
// via the request context; a stream holds no server resources beyond
// its goroutine, and the subscriber gauge tracks open streams so tests
// can prove they drain.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	var exec *execution
	var key string
	terminal := false
	if j != nil {
		exec = j.exec
		key = j.Key
		terminal = j.terminal()
	}
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.met.sseSubs.Add(1)
	defer s.met.sseSubs.Add(-1)

	send := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	sendDone := func() {
		b, err := json.Marshal(s.viewOf(id))
		if err == nil {
			send("done", b)
		}
	}

	// Terminal job (including cache hits, which never had an execution):
	// replay the stored progress artifact, then the final job view.
	if terminal || exec == nil {
		if data, err := s.store.Artifact(key, "progress"); err == nil {
			for _, line := range bytes.Split(data, []byte("\n")) {
				if len(line) > 0 {
					send("progress", line)
				}
			}
		}
		sendDone()
		return
	}

	// Live job: an immediate frame, then one per changed snapshot.
	ticker := time.NewTicker(s.cfg.ProgressInterval)
	defer ticker.Stop()
	var last telemetry.ProgressSnapshot
	sent := false
	emit := func() {
		snap := exec.prog.Snapshot()
		if sent && snap == last {
			return
		}
		last, sent = snap, true
		b, err := json.Marshal(progressEvent{TMs: exec.progLog.sinceStartMs(), ProgressSnapshot: snap})
		if err == nil {
			send("progress", b)
		}
	}
	emit()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-exec.done:
			emit()
			sendDone()
			return
		case <-ticker.C:
			emit()
		}
	}
}
