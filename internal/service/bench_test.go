package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"testing"

	"leakyway/internal/experiments"
	"leakyway/internal/iofault"
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

// syncCounter is an iofault.Rule that injects nothing and counts the
// fsyncs and written bytes the injector passes through.
type syncCounter struct{ syncs, written int64 }

func (c *syncCounter) Name() string { return "sync-counter" }

func (c *syncCounter) Check(op iofault.Op, _ *rand.Rand) iofault.Fault {
	switch op.Kind {
	case iofault.OpSync:
		c.syncs++
	case iofault.OpWrite:
		c.written += int64(op.Bytes)
	}
	return iofault.Fault{}
}

// BenchmarkStorePut times the store layer of a cache miss: publishing
// one quick fig8 result (as EngineRunner makes it, seed 1) under a fresh
// key, with its writes and fsyncs, on the OS filesystem in a temp dir.
// A 16-entry cap keeps the directory small, so the steady state also
// pays one eviction per Put.
func BenchmarkStorePut(b *testing.B) {
	spec, ok := experiments.BuiltinSpec("fig8")
	if !ok {
		b.Fatal("no builtin fig8 scenario")
	}
	res, err := EngineRunner(context.Background(), Submission{Seed: 1, Quick: true, Platform: "both"}, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	count := &syncCounter{}
	s, _, err := OpenStore(iofault.NewInjector(iofault.OS(), 1, count), b.TempDir(),
		StoreOptions{MaxEntries: 16, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, nil)
	if err != nil {
		b.Fatal(err)
	}
	*count = syncCounter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(storeKey(i), experiments.EngineVersion, res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(count.syncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(count.written)/float64(b.N), "written-B/op")
}
