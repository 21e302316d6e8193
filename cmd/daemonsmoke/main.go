// Command daemonsmoke is the end-to-end robustness gate for leakywayd.
// It drives the real daemon binary over real HTTP (through service.Client)
// and real signals, and proves the three properties the service exists
// for:
//
//  1. an identical resubmission is a cache hit (no re-simulation);
//  2. SIGTERM drains — every accepted job completes and the process
//     exits 0;
//  3. SIGKILL loses nothing — a restart from the same data directory
//     recovers the journalled job, a resubmission of it attaches to the
//     recovering execution (X-Cache: coalesced), and both jobs serve
//     byte-identical metrics.
//
// It also exercises the observability surface: /metricsz must scrape as
// Prometheus text, the per-job SSE stream must deliver at least one
// progress frame before the done frame, and an idle daemon must hold no
// engine worker token. The first job's metrics must match the CLI's
// `leakyway -quick -seed 42 -template <file> -json` export byte for byte.
//
// Run via `make daemon-smoke`, which builds both binaries and passes -bin
// and -cli.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"leakyway/internal/service"
)

var (
	bin      = flag.String("bin", "", "path to the leakywayd binary (required)")
	cli      = flag.String("cli", "", "path to the leakyway CLI binary (required unless -chaos)")
	template = flag.String("template", "templates/fig6.yaml", "scenario template to submit")
	chaos    = flag.Bool("chaos", false, "run the disk-chaos phase instead: degraded-mode entry/exit under injected fsync failure plus quota-driven eviction")
)

func main() {
	flag.Parse()
	if *bin == "" {
		fatalf("-bin is required")
	}
	tmpl, err := os.ReadFile(*template)
	if err != nil {
		fatalf("template: %v", err)
	}
	if work, err = os.MkdirTemp("", "leakywayd-smoke-"); err != nil {
		fatalf("tempdir: %v", err)
	}

	if *chaos {
		phaseChaos(string(tmpl))
		fmt.Println("chaos-smoke: degraded-mode entry/exit, quota eviction and post-outage drain all verified")
		exit(0)
	}

	if *cli == "" {
		fatalf("-cli is required")
	}
	m1 := phaseDrain(string(tmpl))
	m2 := phaseCrashRecovery(string(tmpl))
	if !bytes.Equal(m1, m2) {
		fatalf("metrics diverge: drained run vs crash-recovered run\n--- drained ---\n%s\n--- recovered ---\n%s", m1, m2)
	}
	fmt.Println("daemon-smoke: cache-hit, drain and crash-recovery all verified; metrics byte-identical")
	exit(0)
}

// work holds every phase's data dirs, and started lists every daemon
// launched. os.Exit skips deferred calls, so every exit goes through
// exit, which kills the daemons and removes work.
var (
	work    string
	started []*exec.Cmd
)

func exit(code int) {
	for _, cmd := range started {
		cmd.Process.Kill()
		cmd.Wait()
	}
	os.RemoveAll(work)
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "daemonsmoke: "+format+"\n", args...)
	exit(1)
}

// daemon wraps one running leakywayd process.
type daemon struct {
	cmd *exec.Cmd
	*service.Client
}

// The daemon logs via slog's text handler; the listen line carries the
// bound address as an addr=... attribute.
var listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startDaemon launches the binary on an ephemeral port and scrapes the
// bound address from its log output.
func startDaemon(dataDir string, extra ...string) *daemon {
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	cmd := exec.Command(*bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fatalf("start %s: %v", *bin, err)
	}
	started = append(started, cmd)

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  [daemon]", line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()

	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, Client: service.NewClient("http://" + addr)}
	case <-time.After(10 * time.Second):
		fatalf("daemon never reported its listen address")
		return nil
	}
}

// wait returns the daemon's exit code.
func (d *daemon) wait() int {
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	fatalf("wait: %v", err)
	return -1
}

// drain sends SIGTERM and fails unless the daemon then exits 0.
func (d *daemon) drain() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatalf("SIGTERM: %v", err)
	}
	if code := d.wait(); code != 0 {
		fatalf("daemon exited %d after SIGTERM, want 0", code)
	}
}

// job is the submission every phase sends: the template at seed, quick.
func job(tmpl string, seed int64) service.Submission {
	return service.Submission{Template: tmpl, Filename: filepath.Base(*template), Seed: seed, Quick: true}
}

// must ends the smoke on a client error.
func must[T any](v T, err error) T {
	if err != nil {
		fatalf("%v", err)
	}
	return v
}

// awaitDone waits up to a minute for a job to reach done.
func (d *daemon) awaitDone(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	must(d.Await(ctx, id))
}

// health reads /v1/healthz: its status (200 or 503) and body.
func (d *daemon) health() (int, map[string]any) {
	hs, hb, err := d.Healthz()
	must(hb, err)
	return hs, hb
}

// submit posts one job and checks the X-Cache header it was answered with.
func (d *daemon) submit(sub service.Submission, wantCache string) service.JobView {
	v, cache, err := d.Submit(sub)
	must(v, err)
	if cache != wantCache {
		fatalf("seed %d submission X-Cache %q, want %s", sub.Seed, cache, wantCache)
	}
	return v
}

// cliMetrics runs the CLI on the smoke's template at seed, quick, and
// returns its -json export.
func cliMetrics(dir string, seed int64) []byte {
	out := filepath.Join(dir, "cli.metrics.json")
	cmd := exec.Command(*cli, "-quick", "-seed", fmt.Sprint(seed), "-template", *template, "-json", out, "run")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatalf("%s: %v", *cli, err)
	}
	return must(os.ReadFile(out))
}

// checkIdleTokens fails unless the daemon, with no job running, holds no
// engine worker token.
func (d *daemon) checkIdleTokens() {
	if got := must(d.Metric("leakywayd_engine_tokens_in_use")); got != 0 {
		fatalf("idle daemon holds %.0f engine worker tokens, want 0", got)
	}
	fmt.Println("daemon-smoke: idle daemon holds no engine worker token")
}

// phaseChaos drives the daemon through a disk outage and a store-quota
// squeeze: the injected journal-fsync failure must flip it into degraded
// mode (503 + Retry-After on admissions, healthz reporting the reason)
// while artifact reads keep working; once the fault burns out, the probe
// must restore admissions; unique-seed churn against a tiny quota must
// evict old entries while every job still completes; and the daemon must
// still drain cleanly on SIGTERM.
func phaseChaos(tmpl string) {
	d := startDaemon(filepath.Join(work, "chaos"),
		"-chaos-fsync-fail", "10",
		"-store-quota-bytes", "16384",
		"-probe-interval", "100ms",
	)

	// The first admission hits the dead fsync: the accept cannot be made
	// durable, so the daemon must refuse it and enter degraded mode.
	_, _, err := d.Submit(job(tmpl, 1))
	var se *service.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		fatalf("submit during fsync outage: %v, want status 503", err)
	}
	if se.RetryAfter == "" {
		fatalf("degraded 503 carries no Retry-After header")
	}
	hs, hb := d.health()
	if hs != http.StatusServiceUnavailable || hb["status"] != "degraded" {
		fatalf("healthz during outage: %d %v, want 503/degraded", hs, hb)
	}
	if r, _ := hb["reason"].(string); r == "" {
		fatalf("degraded healthz reports no reason: %v", hb)
	}
	fmt.Println("chaos-smoke: fsync outage refused admission with 503 + Retry-After, healthz degraded(reason)")

	// The fault burns out after a fixed number of fsyncs; the probe loop
	// must notice and resume admissions.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if hs, hb := d.health(); hs == http.StatusOK && hb["status"] == "ok" {
			break
		}
		if time.Now().After(deadline) {
			fatalf("daemon never exited degraded mode after the fault cleared")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := must(d.Metric("leakywayd_degraded_entered_total")); got < 1 {
		fatalf("degraded_entered_total %.0f after an outage, want >= 1", got)
	}
	fmt.Println("chaos-smoke: probe cleared degraded mode once the fault burned out")

	// Unique-seed churn against the 16KiB quota: every job completes and
	// serves its artifacts, while older entries are evicted to hold the
	// quota.
	for i := int64(0); i < 12; i++ {
		v := d.submit(job(tmpl, 100+i), "miss")
		d.awaitDone(v.ID)
		must(d.Artifact(v.ID, "metrics"))
	}
	if got := must(d.Metric("leakywayd_store_evictions_total")); got < 1 {
		fatalf("12 unique jobs under a 16KiB quota evicted nothing")
	}
	if got := must(d.Metric("leakywayd_store_bytes")); got > 16384 {
		fatalf("store at %.0f bytes, quota 16384", got)
	}
	fmt.Println("chaos-smoke: quota-driven eviction kept the store under budget with all jobs completing")

	d.drain()
}

// phaseDrain proves cache-hit resubmission and SIGTERM drain, returning
// the metrics bytes of the seed-42 run for cross-phase comparison.
func phaseDrain(tmpl string) []byte {
	dataDir := filepath.Join(work, "drain")
	d := startDaemon(dataDir)

	// First submission simulates. Ride its SSE stream while it runs: the
	// stream must deliver at least one progress frame before done.
	j1 := d.submit(job(tmpl, 42), "miss")
	progress, done := 0, false
	err := d.Events(context.Background(), j1.ID, func(name, _ string) bool {
		switch name {
		case "progress":
			progress++
		case "done":
			done = true
		}
		return !done
	})
	if err != nil || !done {
		fatalf("events %s: stream ended without a done frame: %v", j1.ID, err)
	}
	if progress < 1 {
		fatalf("SSE stream for %s delivered %d progress frames before done, want >= 1", j1.ID, progress)
	}
	fmt.Println("daemon-smoke: SSE stream delivered progress before completion")
	d.awaitDone(j1.ID)
	metrics := must(d.Artifact(j1.ID, "metrics"))
	if !json.Valid(metrics) {
		fatalf("metrics artifact is not valid JSON")
	}
	must(d.Metric(`leakywayd_jobs_total{event="accepted"}`))
	fmt.Println("daemon-smoke: first run completed, metrics fetched, /metricsz scraped")
	if want := cliMetrics(work, 42); !bytes.Equal(metrics, want) {
		fatalf("daemon metrics differ from the CLI's -json export\n--- daemon ---\n%s\n--- cli ---\n%s", metrics, want)
	}
	fmt.Println("daemon-smoke: metrics byte-identical to the CLI's -json export")

	// Identical resubmission must be served from the store.
	j2 := d.submit(job(tmpl, 42), "hit")
	if j2.Key != j1.Key {
		fatalf("resubmission key %s differs from %s", j2.Key, j1.Key)
	}
	fmt.Println("daemon-smoke: resubmission served from cache")
	d.checkIdleTokens()

	// Queue one more job, then SIGTERM: the drain must complete it and
	// the process must exit 0.
	j3 := d.submit(job(tmpl, 43), "miss")
	d.drain()
	// The drained job's result must be stored: a daemon restarted on the
	// same data dir serves its metrics.
	d = startDaemon(dataDir)
	if m3, err := d.Artifact(j3.ID, "metrics"); err != nil || !json.Valid(m3) {
		fatalf("drained job %s has no stored metrics after restart: %v", j3.ID, err)
	}
	d.drain()
	fmt.Println("daemon-smoke: SIGTERM drained cleanly, accepted job completed and served after restart")
	return metrics
}

// phaseCrashRecovery proves SIGKILL recovery: an accepted job interrupted
// by a hard kill completes after restart, a resubmission of it coalesces
// onto the recovered execution, and both serve byte-identical metrics.
func phaseCrashRecovery(tmpl string) []byte {
	dataDir := filepath.Join(work, "crash")

	// -stall holds the simulation so the SIGKILL reliably lands while the
	// accepted job is incomplete.
	d := startDaemon(dataDir, "-stall", "1h")
	j := d.submit(job(tmpl, 42), "miss")
	if err := d.cmd.Process.Kill(); err != nil {
		fatalf("SIGKILL: %v", err)
	}
	d.wait() // reaps the process; exit code is nonzero by design
	fmt.Println("daemon-smoke: daemon SIGKILLed with an accepted job in flight")

	// Restart from the same data dir with a short stall: the journal must
	// resurrect the job under the same ID, and the same submission sent
	// while the recovered execution stalls must attach to it rather than
	// simulate the key a second time.
	d2 := startDaemon(dataDir, "-stall", "2s")
	dup := d2.submit(job(tmpl, 42), "coalesced")
	d2.awaitDone(j.ID)
	d2.awaitDone(dup.ID)
	metrics := must(d2.Artifact(j.ID, "metrics"))
	if again := must(d2.Artifact(dup.ID, "metrics")); !bytes.Equal(metrics, again) {
		fatalf("coalesced job %s metrics differ from recovered job %s", dup.ID, j.ID)
	}
	fmt.Println("daemon-smoke: restart recovered the journalled job to done; its resubmission coalesced onto it")
	d2.checkIdleTokens()

	d2.drain()
	return metrics
}
