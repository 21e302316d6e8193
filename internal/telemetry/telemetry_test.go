package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("jobs_total", "jobs", L("status", "done"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}

	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("hist sum = %v, want 56.05", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatalf("same name+labels returned distinct handles")
	}
	c := r.Counter("x_total", "x", L("k", "other"))
	if a == c {
		t.Fatalf("distinct labels returned the same handle")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestGaugeFuncSampledAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	var mu sync.Mutex
	r.GaugeFunc("live", "sampled", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return v
	})
	snap := r.Snapshot()
	if snap[0].Series[0].Value != 1 {
		t.Fatalf("first sample = %v", snap[0].Series[0].Value)
	}
	mu.Lock()
	v = 7
	mu.Unlock()
	snap = r.Snapshot()
	if snap[0].Series[0].Value != 7 {
		t.Fatalf("second sample = %v, want 7", snap[0].Series[0].Value)
	}
}

// TestSnapshotDeterministicOrder registers families and series in
// scrambled order and checks the snapshot sorts them canonically.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Counter("aa_total", "a", L("x", "2"))
	r.Counter("aa_total", "a", L("x", "1"))
	r.Gauge("mm", "m")

	snap := r.Snapshot()
	var names []string
	for _, f := range snap {
		names = append(names, f.Name)
	}
	want := []string{"aa_total", "mm", "zz_total"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("family order %v, want %v", names, want)
		}
	}
	aa := snap[0]
	if aa.Series[0].Labels[0].Value != "1" || aa.Series[1].Labels[0].Value != "2" {
		t.Fatalf("series not sorted by label signature: %+v", aa.Series)
	}
}

// TestPrometheusExpositionGolden pins the exact exposition bytes for a
// fixed registry state — the wire format /metricsz serves.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("leakywayd_jobs_total", "Jobs by terminal status.", L("status", "done")).Add(3)
	r.Counter("leakywayd_jobs_total", "Jobs by terminal status.", L("status", "failed")).Add(1)
	r.Gauge("leakywayd_queue_depth", "Executions queued, not yet running.").Set(2)
	h := r.Histogram("leakywayd_queue_wait_seconds", "Queue wait.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# HELP leakywayd_jobs_total Jobs by terminal status.
# TYPE leakywayd_jobs_total counter
leakywayd_jobs_total{status="done"} 3
leakywayd_jobs_total{status="failed"} 1
# HELP leakywayd_queue_depth Executions queued, not yet running.
# TYPE leakywayd_queue_depth gauge
leakywayd_queue_depth 2
# HELP leakywayd_queue_wait_seconds Queue wait.
# TYPE leakywayd_queue_wait_seconds histogram
leakywayd_queue_wait_seconds_bucket{le="0.01"} 1
leakywayd_queue_wait_seconds_bucket{le="0.1"} 2
leakywayd_queue_wait_seconds_bucket{le="1"} 2
leakywayd_queue_wait_seconds_bucket{le="+Inf"} 3
leakywayd_queue_wait_seconds_sum 5.055
leakywayd_queue_wait_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestSampleValueRoundTrip reads every series of an exposition back out of
// WritePrometheus's own output and reports absent series as missing.
func TestSampleValueRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs.", L("event", "accepted")).Add(3)
	r.Counter("jobs_total", "Jobs.", L("event", "failed")).Add(1)
	r.Gauge("store_bytes", "Bytes.").Set(16384.5)
	h := r.Histogram("wait_seconds", "Wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for series, want := range map[string]float64{
		`jobs_total{event="accepted"}`:   3,
		`jobs_total{event="failed"}`:     1,
		"store_bytes":                    16384.5,
		`wait_seconds_bucket{le="0.1"}`:  1,
		`wait_seconds_bucket{le="1"}`:    1,
		`wait_seconds_bucket{le="+Inf"}`: 2,
		"wait_seconds_sum":               h.Sum(),
		"wait_seconds_count":             2,
	} {
		if got, ok := SampleValue(text, series); !ok || got != want {
			t.Fatalf("SampleValue(%q) = %v, %v; want %v, true", series, got, ok, want)
		}
	}
	for _, series := range []string{"jobs_total", "store", "wait_seconds", `jobs_total{event="canceled"}`, "# TYPE"} {
		if got, ok := SampleValue(text, series); ok {
			t.Fatalf("SampleValue(%q) = %v; want missing", series, got)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped series line missing:\n%s\nwant substring %q", b.String(), want)
	}
}

// TestConcurrentUpdatesRaceClean hammers every metric kind from many
// goroutines while snapshots run — the -race gate for the lock-cheap
// update paths.
func TestConcurrentUpdatesRaceClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	p := NewProgress()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 100)
				p.AddShards(1)
				p.ShardDone()
				if i%100 == 0 {
					p.StartPhase("p")
					_ = r.Snapshot()
					_ = p.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	s := p.Snapshot()
	if s.ShardsDone != 8000 || s.ShardsTotal != 8000 {
		t.Fatalf("progress shards = %d/%d, want 8000/8000", s.ShardsDone, s.ShardsTotal)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.SetPhasesTotal(3)
	p.StartPhase("x")
	p.EndPhase()
	p.AddShards(2)
	p.ShardDone()
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Fatalf("nil progress snapshot = %+v, want zero", s)
	}
}
