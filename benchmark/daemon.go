package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"leakyway/internal/experiments"
	"leakyway/internal/iofault"
	"leakyway/internal/scenario"
	"leakyway/internal/service"
	"leakyway/internal/telemetry"
)

// The daemon workloads start the leakywayd service in the round process
// (service.New on an empty directory on the real file system, two workers)
// and drive it through its HTTP handler on a loopback listener, as a client
// would: submit a template, poll the job every pollEvery, fetch the metrics
// artifact. Load comes from this one process over at most two connections.

const (
	pollEvery = 10 * time.Millisecond
	// jobWait bounds how long a client waits for one job.
	jobWait = 60 * time.Second
	// mixedPeriod is daemon-mixed's arrival interval (4 jobs/s). At this
	// rate and miss share the workers are about half busy; 5 jobs/s at 70%
	// misses sits too close to saturation for a stable median.
	mixedPeriod = 250 * time.Millisecond
	// mixedPattern repeats over daemon-mixed's arrivals: M carries a fresh
	// seed, H resubmits a stored one, so 60% are misses. A fixed pattern
	// gives every run seed the same overlap of misses, which sets their
	// queueing; the seeds choose only the inputs.
	mixedPattern = "MMHMH"
	// mixedPrime is how many results daemon-mixed computes before its
	// arrivals start; hits resubmit one of them.
	mixedPrime = 4
)

// jobView is the part of GET /v1/jobs/{id} the client reads.
type jobView struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Error        string `json:"error"`
	AssertFailed int    `json:"assert_failed"`
	AssertTotal  int    `json:"assert_total"`
}

type daemon struct {
	srv    *service.Server
	http   *httptest.Server
	client *http.Client
	dir    string
	tmpl   string
	// runs and fs observe the service through its Runner and FS hooks;
	// both are nil unless the round is traced or probing.
	runs *runnerLog
	fs   *countingFS
}

// fig8Template is the document every daemon job submits: the fig8 scenario
// exactly as templates/fig8.yaml defines it, canonically marshalled.
func fig8Template() (*scenario.Spec, string, error) {
	spec, ok := experiments.BuiltinSpec("fig8")
	if !ok {
		return nil, "", errors.New("no builtin fig8 scenario")
	}
	return spec, string(scenario.Marshal(spec)), nil
}

func startDaemon(dir string, hooks bool) (*daemon, error) {
	_, tmpl, err := fig8Template()
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, tmpl: tmpl}
	cfg := service.Config{
		DataDir: dir,
		Workers: 2,
		// Log records are formatted as in production and then dropped.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if hooks {
		d.runs = &runnerLog{bySeed: map[int64][2]time.Time{}}
		d.fs = &countingFS{FS: iofault.OS()}
		cfg.Runner = d.runs.wrap(service.EngineRunner)
		cfg.FS = d.fs
	}
	if d.srv, err = service.New(cfg); err != nil {
		return nil, err
	}
	d.http = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   jobWait,
	}
	return d, nil
}

// close stops the listener, drains the service and removes its directory.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	d.http.Close()
	err := d.srv.Drain()
	cleanupDir(d.dir)
	return err
}

// submit posts one fig8 quick job and returns its view and X-Cache header.
func (d *daemon) submit(seed int64) (jobView, string, error) {
	body, err := json.Marshal(service.Submission{Template: d.tmpl, Seed: seed, Quick: true})
	if err != nil {
		return jobView{}, "", err
	}
	resp, err := d.client.Post(d.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobView{}, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return jobView{}, "", fmt.Errorf("submit: %w", err)
	}
	return v, resp.Header.Get("X-Cache"), nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.http.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// await polls a job until it is terminal. It returns the final view, the
// number of polls and when the poll that saw the terminal state started.
func (d *daemon) await(id string) (jobView, int, time.Time, error) {
	deadline := time.Now().Add(jobWait)
	for polls := 1; ; polls++ {
		t := time.Now()
		data, err := d.get("/v1/jobs/" + id)
		if err != nil {
			return jobView{}, polls, t, err
		}
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			return jobView{}, polls, t, err
		}
		switch v.Status {
		case service.StatusDone, service.StatusFailed, service.StatusCanceled:
			return v, polls, t, nil
		}
		if time.Now().After(deadline) {
			return v, polls, t, fmt.Errorf("job %s still %s after %v", id, v.Status, jobWait)
		}
		time.Sleep(pollEvery)
	}
}

// checkDone reports why a terminal job does not count as a success.
func checkDone(v jobView) error {
	if v.Status != service.StatusDone {
		return fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	if v.AssertFailed > 0 {
		return fmt.Errorf("job %s: %d of %d template assertions failed", v.ID, v.AssertFailed, v.AssertTotal)
	}
	return nil
}

// miss runs one job for a fresh seed: submit, poll until done, fetch the
// metrics artifact. Its time runs from due, when the job was scheduled.
func (d *daemon) miss(rc *roundCtx, kind string, seed int64, due time.Time) []byte {
	op := rc.tr.op()
	input := fmt.Sprintf("fig8quick:%d", seed)
	sent := time.Now()
	v, _, err := d.submit(seed)
	submitted := time.Now()
	if err != nil {
		rc.fail(input, "%v", err)
		return nil
	}
	v, polls, lastPoll, err := d.await(v.ID)
	seen := time.Now()
	rc.polled(polls)
	if err == nil {
		err = checkDone(v)
	}
	if err != nil {
		rc.fail(input, "%v", err)
		return nil
	}
	art, err := d.get("/v1/jobs/" + v.ID + "/artifacts/metrics")
	fetched := time.Now()
	if err != nil {
		rc.fail(input, "%v", err)
		return nil
	}
	if op != nil {
		op.span("loadgen.late", due, sent)
		op.span("http.submit", sent, submitted)
		// The runner hook splits the wait into queue, engine run and the
		// store write + journal that precede the client seeing "done".
		if start, end, ok := d.runs.get(seed); ok {
			start = max64(start, submitted)
			end = max64(end, start)
			lastPoll = max64(lastPoll, end)
			op.span("service.queue", submitted, start)
			op.span("service.runner", start, end)
			op.span("service.finish", end, lastPoll)
		}
		op.span("loadgen.poll", lastPoll, seen)
		op.span("http.fetch", seen, fetched)
		op.done(kind, due, fetched)
	}
	rc.ok(opRecord{Kind: kind, Input: input, Seconds: fetched.Sub(due).Seconds(), Digest: sha256Hex(art)})
	return art
}

// hit resubmits a seed whose result is stored and checks the served bytes
// against the artifact its miss produced. It reports when the submission
// was answered and whether the hit succeeded.
func (d *daemon) hit(rc *roundCtx, seed int64, want []byte, due time.Time) (time.Time, bool) {
	op := rc.tr.op()
	input := fmt.Sprintf("fig8quick:%d", seed)
	sent := time.Now()
	v, cache, err := d.submit(seed)
	submitted := time.Now()
	if err == nil && cache != "hit" {
		err = fmt.Errorf("resubmission answered X-Cache %q, want hit", cache)
	}
	if err == nil {
		err = checkDone(v)
	}
	if err != nil {
		rc.fail(input, "%v", err)
		return submitted, false
	}
	art, err := d.get("/v1/jobs/" + v.ID + "/artifacts/metrics")
	fetched := time.Now()
	if err == nil && !bytes.Equal(art, want) {
		err = errors.New("cache hit served bytes that differ from the miss for the same seed")
	}
	if err != nil {
		rc.fail(input, "%v", err)
		return submitted, false
	}
	op.span("loadgen.late", due, sent)
	op.span("http.submit", sent, submitted)
	op.span("http.fetch", submitted, fetched)
	op.done("hit", due, fetched)
	rc.ok(opRecord{Kind: "hit", Input: input, Seconds: fetched.Sub(due).Seconds()})
	return submitted, true
}

// prime computes the results later hits are served from. The first job
// runs alone and is the round's cold operation; its artifact is also
// checked against a direct engine run of the same template and seed. The
// rest are submitted together and awaited in order.
func (d *daemon) prime(rc *roundCtx, seeds []int64) ([][]byte, error) {
	arts := make([][]byte, len(seeds))
	arts[0] = d.miss(rc, "cold", seeds[0], time.Now())
	rc.setupDone()
	if arts[0] == nil {
		return nil, errors.New("cold job failed")
	}
	direct, err := directFig8(seeds[0])
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(direct, arts[0]) {
		rc.fail(fmt.Sprintf("fig8quick:%d", seeds[0]), "daemon metrics artifact differs from a direct engine run")
	}
	ids := make([]string, len(seeds))
	for k := 1; k < len(seeds); k++ {
		v, _, err := d.submit(seeds[k])
		if err != nil {
			return nil, err
		}
		ids[k] = v.ID
	}
	for k := 1; k < len(seeds); k++ {
		v, _, _, err := d.await(ids[k])
		if err == nil {
			err = checkDone(v)
		}
		if err == nil {
			arts[k], err = d.get("/v1/jobs/" + ids[k] + "/artifacts/metrics")
		}
		if err != nil {
			return nil, fmt.Errorf("priming seed %d: %w", seeds[k], err)
		}
		rc.ok(opRecord{Kind: "prime", Input: fmt.Sprintf("fig8quick:%d", seeds[k]), Digest: sha256Hex(arts[k])})
	}
	return arts, nil
}

// directFig8 runs the fig8 template in process with the CLI's settings
// (`leakyway -quick -template fig8.yaml run`) and returns the metrics
// export, which the daemon must reproduce byte for byte.
func directFig8(seed int64) ([]byte, error) {
	spec, _, err := fig8Template()
	if err != nil {
		return nil, err
	}
	ctx := experiments.NewContext(io.Discard)
	ctx.Seed = seed
	ctx.Quick = true
	ctx.Jobs = 1
	results, err := experiments.RunSpecs(ctx, []*scenario.Spec{spec})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = experiments.WriteMetricsJSON(&buf, results)
	return buf.Bytes(), err
}

// daemon-mixed: an open loop of independent operators. One scheduler
// goroutine releases a job every mixedPeriod whether or not earlier ones
// finished; 60% carry a fresh seed (the write path: admission, journal
// fsync, queue, engine, store put + fsync) and 40% resubmit a stored seed
// (the read path). Latency runs from each job's scheduled time.
func runDaemonMixed(rc *roundCtx) error {
	dir, err := rc.workDir()
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, rc.spec.Traced)
	if err != nil {
		return err
	}
	seeds := make([]int64, mixedPrime)
	for k := range seeds {
		seeds[k] = inputSeed(rc.spec.Seed, "daemon-mixed", "prime", k)
	}
	arts, err := d.prime(rc, seeds)
	if err != nil {
		d.close()
		return err
	}
	// Calibrate while the service is idle: before the first arrival and
	// after the last job.
	rc.calibrate()
	rc.measure(func() {
		n := max(rc.spec.Sizes.MinJobs, int(rc.budget()/mixedPeriod))
		start := time.Now()
		var late time.Duration
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * mixedPeriod)
			time.Sleep(time.Until(due))
			late = max(late, time.Since(due))
			wg.Add(1)
			if mixedPattern[i%len(mixedPattern)] == 'M' {
				seed := inputSeed(rc.spec.Seed, "daemon-mixed", "miss", i)
				go func() { defer wg.Done(); d.miss(rc, "miss", seed, due) }()
			} else {
				k := int(uint64(inputSeed(rc.spec.Seed, "daemon-mixed", "hit", i)) % mixedPrime)
				go func() { defer wg.Done(); d.hit(rc, seeds[k], arts[k], due) }()
			}
		}
		wg.Wait()
		rc.res.LateMaxMs = float64(late) / float64(time.Millisecond)
		rc.res.RateSeconds = time.Since(start).Seconds()
		rc.calibrate()
		for _, op := range rc.res.Ops {
			if op.Kind == "miss" || op.Kind == "hit" {
				rc.res.RateOps++
			}
		}
		// A generator that fell a whole period behind measured itself,
		// not the service.
		if late > mixedPeriod {
			rc.invalidate(n, "scheduler ran %v late (limit %v)", late, mixedPeriod)
		}
	})
	return d.close()
}

// daemon-saturate: two closed-loop clients, each sending its next request
// when the previous one completes. After priming, a miss phase submits
// fresh seeds (capacity for new work), then a hit phase resubmits primed
// seeds and fetches their artifacts (the pure read path: decode, parse,
// canonical key, store lookup, two journal fsyncs, artifact read).
func runDaemonSaturate(rc *roundCtx) error {
	dir, err := rc.workDir()
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, rc.spec.Traced)
	if err != nil {
		return err
	}
	seeds := make([]int64, rc.spec.Sizes.Prime)
	for k := range seeds {
		seeds[k] = inputSeed(rc.spec.Seed, "daemon-saturate", "prime", k)
	}
	arts, err := d.prime(rc, seeds)
	if err != nil {
		d.close()
		return err
	}
	// Calibrate while the service is idle, around each phase.
	rc.calibrate()
	rc.measure(func() {
		missBudget := rc.budget() * 6 / 10
		n, wall := twoClients(missBudget, 1, func(i int) {
			d.miss(rc, "miss", inputSeed(rc.spec.Seed, "daemon-saturate", "miss", i), time.Now())
		})
		rc.res.RateOps, rc.res.RateSeconds = n, wall.Seconds()
		rc.calibrate()
		n, wall = twoClients(rc.budget()-missBudget, rc.spec.Sizes.MinHits, func(i int) {
			k := i % len(seeds)
			d.hit(rc, seeds[k], arts[k], time.Now())
		})
		rc.res.AuxOps, rc.res.AuxSeconds = n, wall.Seconds()
		rc.calibrate()
	})
	return d.close()
}

// twoClients runs op(0), op(1), ... from two closed-loop clients until
// budget has passed and at least min operations were issued, and returns
// how many were issued and the elapsed time.
func twoClients(budget time.Duration, min int, op func(i int)) (int, time.Duration) {
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= min && time.Since(t0) >= budget {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return int(next.Load()) - 2, time.Since(t0)
}

func max64(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runnerLog records when the engine ran each job, keyed by seed (every
// executed job in a round has its own seed).
type runnerLog struct {
	mu     sync.Mutex
	bySeed map[int64][2]time.Time
}

func (l *runnerLog) wrap(next service.Runner) service.Runner {
	return func(ctx context.Context, sub service.Submission, spec *scenario.Spec, prog *telemetry.Progress) (*service.Result, error) {
		t0 := time.Now()
		res, err := next(ctx, sub, spec, prog)
		t1 := time.Now()
		l.mu.Lock()
		l.bySeed[sub.Seed] = [2]time.Time{t0, t1}
		l.mu.Unlock()
		return res, err
	}
}

func (l *runnerLog) get(seed int64) (start, end time.Time, ok bool) {
	if l == nil {
		return start, end, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.bySeed[seed]
	return r[0], r[1], ok
}

// countingFS passes every call through to the OS and counts fsyncs, their
// time, and bytes written.
type countingFS struct {
	iofault.FS
	syncs, syncNs, written atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (iofault.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	iofault.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNs.Add(int64(time.Since(t0)))
	f.fs.syncs.Add(1)
	return err
}
