package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"testing"

	"leakyway/internal/experiments"
	"leakyway/internal/scenario"
)

// BenchmarkServiceFreshJob times the daemon-job layer for a cache miss:
// one fresh-seed quick fig8 submission through the HTTP handler of a
// two-worker server on a temp dir, queued, run by EngineRunner, stored
// with its fsyncs, and read back as done. Every iteration runs alone, so
// the job may use the whole engine worker budget.
func BenchmarkServiceFreshJob(b *testing.B) {
	spec, ok := experiments.BuiltinSpec("fig8")
	if !ok {
		b.Fatal("no builtin fig8 scenario")
	}
	tmpl := string(scenario.Marshal(spec))
	s, err := New(Config{
		DataDir: b.TempDir(),
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := doJSON(h, http.MethodPost, "/v1/jobs", Submission{Template: tmpl, Seed: int64(1000 + i), Quick: true})
		var v JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || w.Code != http.StatusAccepted {
			b.Fatalf("submit: %d %s", w.Code, w.Body.Bytes())
		}
		<-s.Job(v.ID).exec.done
		w = doJSON(h, http.MethodGet, "/v1/jobs/"+v.ID, nil)
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.Status != StatusDone {
			b.Fatalf("job %s: %d %s", v.ID, w.Code, w.Body.Bytes())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
}
