// Command loadgen is the daemon throughput benchmark. It drives
// leakywayd's admission path over real HTTP at a ramp of concurrency
// levels and reports, per level, the admission throughput (accepted
// jobs/s), the submit-latency distribution, and the 429 rejection rate;
// it then names the saturation point — the first level where the queue
// pushed back or where extra concurrency stopped buying throughput.
//
// By default it self-hosts an in-process daemon with a synthetic runner
// (-fake, default 5ms per job) so the benchmark measures the daemon —
// queue, single-flight, journal, store — rather than the simulation
// kernel. -fake=0 swaps in the real engine; -addr targets an already
// running external daemon instead (its -data fills with results).
//
// After the ramp it scrapes /metricsz and summarizes the server-side
// queue-wait histogram, closing the loop between the client-observed
// and daemon-observed views of the same run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leakyway/internal/scenario"
	"leakyway/internal/service"
	"leakyway/internal/telemetry"
)

var (
	addr     = flag.String("addr", "", "benchmark an external daemon at this base URL (default: self-host in-process)")
	template = flag.String("template", "templates/fig6.yaml", "scenario template to submit")
	levels   = flag.String("levels", "1,2,4,8,16", "comma-separated concurrency ramp")
	duration = flag.Duration("duration", 2*time.Second, "time spent at each concurrency level")
	workers  = flag.Int("workers", 2, "worker pool size (self-hosted only)")
	queueCap = flag.Int("queue", 64, "queue capacity (self-hosted only)")
	fake     = flag.Duration("fake", 5*time.Millisecond, "synthetic per-job runtime (self-hosted only; 0 runs the real engine)")

	churn      = flag.Int64("store-churn", 0, "churn mode: complete this many unique-seed jobs against a quota-bound store and report eviction throughput (replaces the ramp)")
	storeQuota = flag.Int64("store-quota", 64<<10, "result-store byte quota (self-hosted churn mode)")
)

func main() {
	flag.Parse()
	tmpl, err := os.ReadFile(*template)
	if err != nil {
		fatalf("template: %v", err)
	}
	ramp, err := parseLevels(*levels)
	if err != nil {
		fatalf("%v", err)
	}

	base := *addr
	if base == "" {
		var stop func()
		base, stop = selfHost()
		defer stop()
	}

	if *churn > 0 {
		runChurn(base, string(tmpl), ramp[0], *churn)
		return
	}

	fmt.Printf("loadgen: target %s, template %s, %v per level\n\n", base, *template, *duration)
	fmt.Printf("%7s %12s %10s %10s %10s %10s %8s\n",
		"conc", "accepted/s", "p50", "p90", "p99", "max", "429s")

	var results []levelResult
	for _, c := range ramp {
		r := runLevel(base, string(tmpl), c, *duration)
		results = append(results, r)
		fmt.Printf("%7d %12.1f %10s %10s %10s %10s %7.1f%%\n",
			c, r.acceptedPerSec(),
			fmtDur(r.pct(0.50)), fmtDur(r.pct(0.90)), fmtDur(r.pct(0.99)), fmtDur(r.max()),
			r.rejectRate()*100)
	}

	fmt.Println()
	reportSaturation(results)
	reportQueueWait(base)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-levels: bad level %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// selfHost spins up an in-process daemon on an ephemeral port and
// returns its base URL plus a teardown func. The synthetic runner keeps
// per-job cost flat and publishes progress like the real engine would.
func selfHost() (string, func()) {
	dir, err := os.MkdirTemp("", "loadgen-")
	if err != nil {
		fatalf("tempdir: %v", err)
	}
	cfg := service.Config{
		DataDir:  dir,
		Workers:  *workers,
		QueueCap: *queueCap,
		// Benchmark runs don't want operational chatter on stderr.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if *churn > 0 {
		cfg.StoreQuotaBytes = *storeQuota
	}
	if *fake > 0 {
		d := *fake
		cfg.Runner = func(ctx context.Context, sub service.Submission, spec *scenario.Spec, prog *telemetry.Progress) (*service.Result, error) {
			prog.SetPhasesTotal(1)
			prog.StartPhase("synthetic")
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			prog.EndPhase()
			return &service.Result{Report: []byte("synthetic\n"), Metrics: []byte("{}\n")}, nil
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		fatalf("self-host: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), stop
}

// levelResult collects one concurrency level's client-side observations.
type levelResult struct {
	conc      int
	elapsed   time.Duration
	accepted  int64
	rejected  int64
	errors    int64
	latencies []time.Duration // submit round-trips, accepted only
}

func (r *levelResult) acceptedPerSec() float64 {
	return float64(r.accepted) / r.elapsed.Seconds()
}

func (r *levelResult) rejectRate() float64 {
	total := r.accepted + r.rejected
	if total == 0 {
		return 0
	}
	return float64(r.rejected) / float64(total)
}

func (r *levelResult) pct(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.latencies)-1))
	return r.latencies[i]
}

func (r *levelResult) max() time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	return r.latencies[len(r.latencies)-1]
}

// seedCounter makes every submission unique across the whole run, so
// neither the result cache nor single-flight short-circuits admission.
var seedCounter atomic.Int64

// runLevel hammers POST /v1/jobs from conc goroutines for d.
func runLevel(base, tmpl string, conc int, d time.Duration) levelResult {
	r := levelResult{conc: conc}
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	start := time.Now()

	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			var acc, rej, errs int64
			for time.Now().Before(deadline) {
				seed := seedCounter.Add(1)
				body, _ := json.Marshal(map[string]any{
					"template": tmpl,
					"filename": "loadgen.yaml",
					"seed":     seed,
					"quick":    true,
				})
				t0 := time.Now()
				resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
				rt := time.Since(t0)
				if err != nil {
					errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					acc++
					local = append(local, rt)
				case http.StatusTooManyRequests:
					rej++
				default:
					errs++
				}
			}
			mu.Lock()
			r.accepted += acc
			r.rejected += rej
			r.errors += errs
			r.latencies = append(r.latencies, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	return r
}

// runChurn is the store-governance benchmark: conc goroutines submit
// unique-seed jobs (every one a store miss) until total completions
// reach the target, against a daemon whose store quota forces steady
// eviction. It then reports eviction throughput and the final store
// occupancy from the daemon's own /metricsz, plus a hard check that the
// quota actually held.
func runChurn(base, tmpl string, conc int, total int64) {
	fmt.Printf("loadgen: store-churn %d unique jobs at concurrency %d, quota %d bytes\n",
		total, conc, *storeQuota)
	start := time.Now()
	var accepted atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for accepted.Load() < total {
				seed := seedCounter.Add(1)
				body, _ := json.Marshal(map[string]any{
					"template": tmpl,
					"filename": "loadgen.yaml",
					"seed":     seed,
					"quick":    true,
				})
				resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					fatalf("churn submit: %v", err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					time.Sleep(5 * time.Millisecond) // backpressure: let workers drain
				default:
					fatalf("churn submit: unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()

	// Admissions done; wait for the queue to drain so evictions settle.
	for {
		if metricValue(base, "leakywayd_queue_depth") == 0 &&
			metricValue(base, "leakywayd_workers_busy") == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	elapsed := time.Since(start)

	evictions := metricValue(base, "leakywayd_store_evictions_total")
	evictedBytes := metricValue(base, "leakywayd_store_evicted_bytes_total")
	storeBytes := metricValue(base, "leakywayd_store_bytes")
	entries := metricValue(base, "leakywayd_store_entries")
	fmt.Printf("churn: %d jobs in %s (%.1f jobs/s)\n",
		accepted.Load(), elapsed.Round(time.Millisecond), float64(accepted.Load())/elapsed.Seconds())
	fmt.Printf("churn: %.0f evictions (%.1f/s), %.0f bytes reclaimed\n",
		evictions, evictions/elapsed.Seconds(), evictedBytes)
	fmt.Printf("churn: store settled at %.0f bytes across %.0f entries (quota %d)\n",
		storeBytes, entries, *storeQuota)
	if int64(storeBytes) > *storeQuota {
		fatalf("store ended at %.0f bytes, over the %d-byte quota", storeBytes, *storeQuota)
	}
	if evictions == 0 {
		fmt.Println("churn: warning — no evictions; raise -store-churn or shrink -store-quota")
	}
}

// metricValue scrapes one sample's value from /metricsz.
func metricValue(base, series string) float64 {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		fatalf("metricsz: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	v, ok := telemetry.SampleValue(string(data), series)
	if !ok {
		fatalf("metricsz: no %s sample in scrape", series)
	}
	return v
}

// reportSaturation names the first level where the daemon pushed back
// (any 429s) or where doubling concurrency bought <10% more throughput.
func reportSaturation(results []levelResult) {
	for i, r := range results {
		if r.rejected > 0 {
			fmt.Printf("saturation: queue pushback first seen at concurrency %d (%.1f%% of submissions got 429)\n",
				r.conc, r.rejectRate()*100)
			return
		}
		if i > 0 && r.acceptedPerSec() < results[i-1].acceptedPerSec()*1.10 {
			fmt.Printf("saturation: throughput plateaued at concurrency %d (%.1f/s vs %.1f/s at %d)\n",
				r.conc, r.acceptedPerSec(), results[i-1].acceptedPerSec(), results[i-1].conc)
			return
		}
	}
	fmt.Println("saturation: not reached — raise -levels or shrink -queue to find the knee")
}

// reportQueueWait scrapes /metricsz and prints percentile estimates
// interpolated from the server-side leakywayd_queue_wait_seconds
// histogram — the daemon's own view of admission-to-start delay.
func reportQueueWait(base string) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		fmt.Printf("queue-wait: /metricsz scrape failed: %v\n", err)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		fmt.Printf("queue-wait: /metricsz status %d\n", resp.StatusCode)
		return
	}
	bounds, counts, total := telemetry.ParseHistogram(string(data), "leakywayd_queue_wait_seconds")
	if total == 0 {
		fmt.Println("queue-wait: no samples in leakywayd_queue_wait_seconds")
		return
	}
	fmt.Printf("queue-wait (server-side, %d samples): p50<=%s p90<=%s p99<=%s\n",
		total,
		fmtDur(histPct(bounds, counts, total, 0.50)),
		fmtDur(histPct(bounds, counts, total, 0.90)),
		fmtDur(histPct(bounds, counts, total, 0.99)))
}

// histPct returns the upper bound of the first bucket covering the
// requested quantile — the classic exposition-side estimate. A quantile
// that lands only in the +Inf bucket reports the last finite bound.
func histPct(bounds []float64, counts []uint64, total uint64, p float64) time.Duration {
	want := uint64(p * float64(total))
	var lastFinite float64
	for i, c := range counts {
		if !math.IsInf(bounds[i], 1) {
			lastFinite = bounds[i]
		}
		if c >= want && c > 0 {
			b := bounds[i]
			if math.IsInf(b, 1) {
				b = lastFinite
			}
			return time.Duration(b * float64(time.Second))
		}
	}
	return 0
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
