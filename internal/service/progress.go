package service

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"leakyway/internal/telemetry"
)

// progressEvent is one progress sample: a snapshot stamped with
// milliseconds since the execution started running. It is both one line
// of the stored "progress" artifact (JSONL) and one SSE data payload, so
// a replayed stream and a live stream carry identical records.
type progressEvent struct {
	TMs int64 `json:"t_ms"`
	telemetry.ProgressSnapshot
}

// maxProgressEntries caps the stored progress log. A multi-hour run
// sampled every quarter second would otherwise write an unbounded
// artifact; past the cap the recorder keeps only the newest sample slot
// updated, so the final state is always present.
const maxProgressEntries = 2048

// progressLog accumulates the sampled progress history of one execution.
// The worker's recorder goroutine appends; SSE handlers read the start
// time concurrently, hence the lock.
type progressLog struct {
	mu      sync.Mutex
	start   time.Time
	entries []progressEvent
}

// begin stamps the execution's start; samples are timed relative to it.
func (pl *progressLog) begin() {
	pl.mu.Lock()
	pl.start = time.Now()
	pl.mu.Unlock()
}

// sinceStartMs returns milliseconds since begin (0 before the execution
// starts running).
func (pl *progressLog) sinceStartMs() int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.start.IsZero() {
		return 0
	}
	return time.Since(pl.start).Milliseconds()
}

// record appends one sample, dropping no-change duplicates. Past the
// size cap it overwrites the last slot instead of growing, preserving
// the final state without unbounded memory.
func (pl *progressLog) record(s telemetry.ProgressSnapshot) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := len(pl.entries); n > 0 && pl.entries[n-1].ProgressSnapshot == s {
		return
	}
	ev := progressEvent{ProgressSnapshot: s}
	if !pl.start.IsZero() {
		ev.TMs = time.Since(pl.start).Milliseconds()
	}
	if len(pl.entries) >= maxProgressEntries {
		pl.entries[len(pl.entries)-1] = ev
		return
	}
	pl.entries = append(pl.entries, ev)
}

// marshal renders the log as JSONL — the bytes stored as the "progress"
// artifact and replayed over SSE after the job completes.
func (pl *progressLog) marshal() []byte {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var buf bytes.Buffer
	for i := range pl.entries {
		b, err := json.Marshal(&pl.entries[i])
		if err != nil {
			continue
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
